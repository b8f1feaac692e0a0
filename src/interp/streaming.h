#ifndef TBM_INTERP_STREAMING_H_
#define TBM_INTERP_STREAMING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/thread_pool.h"
#include "blob/blob_store.h"
#include "blob/chunk_reader.h"
#include "blob/prefetcher.h"
#include "blob/read_policy.h"
#include "interp/interpretation.h"
#include "stream/timed_stream.h"

namespace tbm {

/// Counters of one ElementStream's lifetime.
struct ElementStreamStats {
  uint64_t elements_delivered = 0;

  /// Elements whose bytes were no longer (or not yet) in the chunk
  /// window and were fetched with a direct ranged read instead —
  /// happens only for out-of-order placements (e.g. key-first layouts).
  uint64_t fallback_element_reads = 0;

  /// High-water mark of chunks buffered in the assembly window.
  uint64_t peak_window_chunks = 0;

  /// Counters of the underlying prefetcher.
  PrefetchStats prefetch;
};

/// Which elements an ElementStream delivers, counted over the elements
/// its span selects (all of them without a span): element `first`, then
/// every `stride`-th element after it.
struct ElementSelection {
  size_t first = 0;
  uint32_t stride = 1;  ///< Must be >= 1.
};

/// Expansion of one interpreted object (the interpretation mapping of
/// Def. 5, run on demand): delivers the object's elements in element
/// order, reading the BLOB chunk by chunk instead of one read per
/// element (or one read for the whole object). This is the only path
/// from an interpreted object's bytes to its elements; a materialized
/// stream is a drained ElementStream (MaterializeStreamed), and random
/// access to one element is Interpretation::ReadElement.
///
/// The stream reads only the chunks its selected elements touch (the
/// chunk plan), in ascending order, so an object that does not start
/// its BLOB, a span in the middle of an object, or a strided selection
/// over elements larger than a chunk never reads the bytes in between.
/// Playback consumes elements in timestamp order at a sustained rate
/// (paper §2.2), so readahead over the plan overlaps store latency
/// with decode/presentation work; the chunk window holds only bytes
/// that a future element still needs, so memory stays bounded by the
/// prefetch budget plus the span of out-of-order placements.
///
/// The store (and the thread pool, if any) must outlive the stream.
/// The Interpretation may be destroyed after Open — the placement
/// table is copied, once; Reposition keeps it.
class ElementStream {
 public:
  /// Opens a stream over `interpretation`'s object `name` in `store`.
  /// With a `span`, only the elements it selects are delivered — the
  /// structural query "select a specific duration": a zero-duration
  /// element is selected when the span contains its start, any other
  /// when its span overlaps `span`. `selection` then picks the start
  /// element and stride among those; InvalidArgument for stride 0.
  static Result<std::unique_ptr<ElementStream>> Open(
      const BlobStore& store, const Interpretation& interpretation,
      const std::string& name, const StreamReadOptions& options = {},
      std::optional<TickSpan> span = {}, ElementSelection selection = {});

  /// True when no selected element is left to deliver.
  bool Done() const { return next_element_ >= object_.elements.size(); }

  /// Index (into object().elements) of the element Next() delivers.
  size_t position() const { return next_element_; }
  /// Elements the span selected (before the stride applies).
  size_t size() const { return object_.elements.size(); }
  uint32_t stride() const { return stride_; }

  /// Continues delivery from `selection` (a seek, a new stride, or
  /// both). Drops the chunk window and the prefetcher; the next Next()
  /// plans and reads the chunks of the new selection. InvalidArgument
  /// for stride 0.
  Status Reposition(ElementSelection selection);

  const MediaDescriptor& descriptor() const { return object_.descriptor; }
  const TimeSystem& time_system() const { return object_.time_system; }

  /// The object restricted to the elements the span selects (all of
  /// them without a span); element numbers are the original ones.
  const InterpretedObject& object() const { return object_; }

  /// Delivers the selected element at position(), then advances by the
  /// stride; OutOfRange once Done(). A failed read (after the policy's
  /// retries) fails only this call — the position still advances, so a
  /// lenient caller can skip the element and continue.
  Result<StreamElement> Next();

  /// Snapshot of the stream's counters. `prefetch` covers the chunk
  /// plan since the last Reposition.
  ElementStreamStats stats() const;

 private:
  ElementStream(const BlobStore& store, BlobId blob,
                InterpretedObject object, StreamReadOptions options);

  /// On first use after Open or Reposition: plans the chunks that the
  /// selected elements from position() on touch, and opens the chunk
  /// reader and the prefetcher over that plan.
  Status EnsurePrefetcher();

  /// Pulls plan chunks from the prefetcher up to and including `chunk`.
  Status AdvanceTo(uint64_t chunk);

  /// Serves `range` out of the chunk window: a zero-copy sub-slice of
  /// the covering chunk when the range fits in one chunk (the common
  /// case — element ≤ chunk), an owned concatenation otherwise. False
  /// if any needed chunk has already been evicted (or lies behind a
  /// failed pull), in which case the caller falls back to a direct
  /// read.
  bool AssembleFromWindow(ByteRange range, BufferSlice* out) const;

  /// Drops window chunks no future selected element needs.
  void EvictConsumed();

  const BlobStore& store_;
  BlobId blob_;
  InterpretedObject object_;
  StreamReadOptions options_;
  std::unique_ptr<AsyncPrefetcher> prefetcher_;

  /// Built with the chunk plan: suffix_min_offset_[i] = min offset over
  /// the non-empty placements of the selected elements among i..n-1
  /// (UINT64_MAX past the end) — the eviction horizon.
  std::vector<uint64_t> suffix_min_offset_;

  std::map<uint64_t, BufferSlice> window_;  ///< chunk index -> payload.
  size_t next_pull_ = 0;  ///< Plan position the prefetcher yields next.
  size_t next_element_ = 0;
  uint32_t stride_ = 1;
  ElementStreamStats stats_;
};

/// Materializes the named object (or the elements `span` selects) as a
/// TimedStream by draining an ElementStream over it.
Result<TimedStream> MaterializeStreamed(const BlobStore& store,
                                        const Interpretation& interpretation,
                                        const std::string& name,
                                        const StreamReadOptions& options = {},
                                        std::optional<TickSpan> span = {});

/// Drains the rest of `stream` into a TimedStream.
Result<TimedStream> MaterializeStreamed(ElementStream* stream);

}  // namespace tbm

#endif  // TBM_INTERP_STREAMING_H_
