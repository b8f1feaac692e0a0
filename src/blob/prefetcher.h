#ifndef TBM_BLOB_PREFETCHER_H_
#define TBM_BLOB_PREFETCHER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "base/thread_pool.h"
#include "blob/chunk_reader.h"

namespace tbm {

/// Counters of one prefetcher's lifetime (monotone; read anytime).
struct PrefetchStats {
  uint64_t chunks_delivered = 0;
  uint64_t hits = 0;        ///< Next() found the chunk already buffered.
  uint64_t stalls = 0;      ///< Next() had to wait for the fetch.
  uint64_t stall_us = 0;    ///< Total time spent waiting in Next().
  uint64_t bytes_delivered = 0;
  uint64_t read_errors = 0; ///< Chunks whose read failed (after retries).

  double HitRate() const {
    uint64_t total = hits + stalls;
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Asynchronous sequential readahead over a ChunkReader.
///
/// The prefetcher delivers a chunk plan: an ascending list of chunk
/// indices, fixed at construction. The consumer calls Next() to receive
/// those chunks in order; the prefetcher keeps up to `prefetch_depth`
/// further plan chunks in flight on the options' pool, bounded by
/// `max_inflight_bytes`. Depth 0 or a null pool reads each chunk
/// synchronously in Next() — the baseline the streaming ablation
/// measures against. Chunks outside the plan are never read, and
/// readahead stops at the plan's last chunk. When I/O latency and
/// decode cost are comparable, this overlaps them almost completely —
/// playback touches elements in timestamp order at a constant rate
/// (paper §2.2), which is exactly the access pattern readahead wants.
///
/// Chunk read failures are returned from Next() for that chunk only;
/// the stream position still advances, so a caller with its own
/// recovery (or a lenient ReadPolicy in the reader) can keep going.
///
/// Thread-safety: Next() is intended for one consumer thread;
/// scheduling internals are locked, and the destructor drains any
/// in-flight reads before returning.
class AsyncPrefetcher {
 public:
  /// `reader` is owned; `options.pool` is borrowed and may be null
  /// (synchronous mode). `chunks` is the plan: ascending, distinct
  /// indices below the reader's chunk_count(). The underlying store must
  /// stay alive and unmutated for the prefetcher's lifetime.
  AsyncPrefetcher(std::unique_ptr<ChunkReader> reader,
                  const StreamReadOptions& options,
                  std::vector<uint64_t> chunks);

  /// Blocks until outstanding chunk reads finish.
  ~AsyncPrefetcher();

  AsyncPrefetcher(const AsyncPrefetcher&) = delete;
  AsyncPrefetcher& operator=(const AsyncPrefetcher&) = delete;

  /// True when every plan chunk has been delivered.
  bool Done() const;

  /// The chunk plan, in delivery order.
  const std::vector<uint64_t>& chunks() const { return chunks_; }
  const ChunkReader& reader() const { return *reader_; }

  /// Delivers the next plan chunk, scheduling further readahead.
  /// OutOfRange once Done().
  Result<BufferSlice> Next();

  /// Snapshot of the prefetcher's counters.
  PrefetchStats stats() const;

 private:
  /// Schedules readahead up to depth/byte bounds. Caller holds mu_.
  void ScheduleLocked();

  std::unique_ptr<ChunkReader> reader_;
  ThreadPool* const pool_;
  const size_t depth_;  ///< 0 = synchronous (also with a null pool).
  const uint64_t max_inflight_bytes_;
  const std::vector<uint64_t> chunks_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Fetched, unconsumed chunks, keyed by plan position.
  std::map<size_t, Result<BufferSlice>> ready_;
  size_t next_consume_ = 0;   ///< Plan position Next() returns.
  size_t next_schedule_ = 0;  ///< Plan position to hand to the pool.
  uint64_t inflight_bytes_ = 0; ///< Scheduled or buffered, unconsumed.
  int outstanding_tasks_ = 0;
  PrefetchStats stats_;
};

}  // namespace tbm

#endif  // TBM_BLOB_PREFETCHER_H_
