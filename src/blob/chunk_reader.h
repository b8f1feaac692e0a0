#ifndef TBM_BLOB_CHUNK_READER_H_
#define TBM_BLOB_CHUNK_READER_H_

#include <algorithm>
#include <cstdint>

#include "base/buffer.h"
#include "base/bytes.h"
#include "base/result.h"
#include "base/status.h"
#include "blob/read_policy.h"

namespace tbm {

class ThreadPool;

/// How a BLOB is read in chunks: the chunk granularity and retry policy
/// of a ChunkReader, and the readahead of an AsyncPrefetcher over it.
/// ElementStream and everything above it read through these settings.
struct StreamReadOptions {
  /// Chunk granularity of the underlying reads, in [1, 2^32) bytes.
  uint64_t chunk_size = 256 * 1024;

  /// Chunks of readahead. 0 (or a null `pool`) reads synchronously —
  /// each chunk is fetched when the consumer asks for it.
  int prefetch_depth = 4;

  /// Backpressure bound on prefetched-but-unconsumed bytes: scheduling
  /// pauses at this bound even if `prefetch_depth` would allow more, so
  /// a fast store cannot balloon memory ahead of a slow consumer.
  uint64_t max_inflight_bytes = 8ull << 20;

  /// Retry/backoff/timeout applied to every chunk read.
  ReadPolicy policy;

  /// Pool the readahead runs on; borrowed, may be null (synchronous).
  ThreadPool* pool = nullptr;

  /// InvalidArgument when `chunk_size` is 0 or does not fit the
  /// reader's 32-bit chunk size.
  Status Validate() const;
};

/// Incremental access to one BLOB as a sequence of fixed-size chunks.
///
/// The paper's timed streams are consumed in timestamp order at a
/// bounded data rate; whole-object reads force the full BLOB latency
/// up front and forbid overlapping decode with I/O. A ChunkReader is
/// the delivery-path primitive that fixes this: `ReadChunk(i)` serves
/// chunk `i` on demand, so consumers (AsyncPrefetcher, ElementStream,
/// the streaming codec bridge) pull data as the presentation needs it.
/// Each chunk is one policy-governed range read against the BlobStore
/// interface, so a reader works over every store and decorator alike.
///
/// Obtain one with `BlobStore::OpenChunkReader`. The reader snapshots
/// the BLOB size at open; bytes appended afterwards are not visible.
/// `ReadChunk` is safe to call from multiple threads concurrently as
/// long as no thread mutates the underlying store — this is what the
/// prefetcher relies on to overlap chunk fetches.
class ChunkReader {
 public:
  /// Chunk payload size in bytes, as requested at open.
  uint32_t chunk_size() const {
    return static_cast<uint32_t>(options_.chunk_size);
  }

  /// BLOB size snapshot taken at open, bytes.
  uint64_t blob_size() const { return size_; }

  /// Number of chunks ( = ceil(blob_size / chunk_size); 0 for an empty
  /// BLOB).
  uint64_t chunk_count() const {
    uint64_t size = blob_size();
    uint32_t chunk = chunk_size();
    return size == 0 ? 0 : (size + chunk - 1) / chunk;
  }

  /// Byte range chunk `index` covers (the final chunk is truncated to
  /// the BLOB end).
  ByteRange ChunkRange(uint64_t index) const {
    uint64_t offset = index * static_cast<uint64_t>(chunk_size());
    uint64_t length =
        offset >= blob_size()
            ? 0
            : std::min<uint64_t>(chunk_size(), blob_size() - offset);
    return ByteRange{offset, length};
  }

  /// Reads chunk `index` under the reader's ReadPolicy. OutOfRange for
  /// `index >= chunk_count()`. Zero-copy where the store supports it
  /// (see BlobStore::Read); the slice owns its bytes either way.
  Result<BufferSlice> ReadChunk(uint64_t index) const;

  /// The policy chunk reads run under.
  const ReadPolicy& policy() const { return options_.policy; }

 private:
  friend class BlobStore;

  ChunkReader(const BlobStore* store, BlobId id, uint64_t size,
              const StreamReadOptions& options)
      : store_(store), id_(id), size_(size), options_(options) {}

  const BlobStore* store_;
  BlobId id_;
  uint64_t size_;
  StreamReadOptions options_;
};

}  // namespace tbm

#endif  // TBM_BLOB_CHUNK_READER_H_
