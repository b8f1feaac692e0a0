#include "interp/streaming.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "base/macros.h"
#include "blob/chunk_reader.h"
#include "obs/trace.h"

namespace tbm {

Result<std::unique_ptr<ElementStream>> ElementStream::Open(
    const BlobStore& store, const Interpretation& interpretation,
    const std::string& name, const StreamReadOptions& options,
    std::optional<TickSpan> span) {
  if (options.chunk_size == 0) {
    return Status::InvalidArgument("chunk_size must be positive");
  }
  TBM_ASSIGN_OR_RETURN(const InterpretedObject* object,
                       interpretation.FindObject(name));
  InterpretedObject selected = *object;
  if (span.has_value()) {
    std::erase_if(selected.elements, [&](const ElementPlacement& e) {
      return e.duration == 0 ? !span->Contains(e.start)
                             : !TickSpan{e.start, e.duration}.Overlaps(*span);
    });
  }
  return std::unique_ptr<ElementStream>(new ElementStream(
      store, interpretation.blob(), std::move(selected), options));
}

ElementStream::ElementStream(const BlobStore& store, BlobId blob,
                             InterpretedObject object,
                             StreamReadOptions options)
    : store_(store),
      blob_(blob),
      object_(std::move(object)),
      options_(options) {
  const size_t n = object_.elements.size();
  suffix_min_offset_.assign(n + 1, std::numeric_limits<uint64_t>::max());
  for (size_t i = n; i-- > 0;) {
    const ByteRange& range = object_.elements[i].placement;
    suffix_min_offset_[i] =
        range.empty() ? suffix_min_offset_[i + 1]
                      : std::min(suffix_min_offset_[i + 1], range.offset);
  }
}

Status ElementStream::EnsurePrefetcher() {
  if (prefetcher_ != nullptr) return Status::OK();
  // Opened on first use rather than in Open() so readahead does not
  // start (and OpenChunkReader cannot fail) before the first Next().
  ChunkReaderOptions reader_options;
  reader_options.chunk_size = options_.chunk_size;
  reader_options.policy = options_.policy;
  TBM_ASSIGN_OR_RETURN(std::unique_ptr<ChunkReader> reader,
                       store_.OpenChunkReader(blob_, reader_options));
  PrefetchOptions prefetch;
  prefetch.depth = options_.prefetch_depth;
  prefetch.max_inflight_bytes = options_.max_inflight_bytes;
  // Start at the chunk holding the lowest offset any element needs:
  // the bytes before it belong to other objects (or unselected
  // elements) and are never read.
  next_pull_ = suffix_min_offset_[0] / reader->chunk_size();
  prefetcher_ = std::make_unique<AsyncPrefetcher>(
      std::move(reader), options_.pool, prefetch, next_pull_);
  return Status::OK();
}

Status ElementStream::AdvanceTo(uint64_t chunk) {
  while (next_pull_ <= chunk) {
    const uint64_t index = next_pull_++;
    Result<BufferSlice> bytes = prefetcher_->Next();
    // A failed chunk is simply absent from the window: the element
    // needing it fails (or falls back to a direct read), later
    // elements keep streaming.
    TBM_RETURN_IF_ERROR(bytes.status());
    window_.emplace(index, std::move(bytes).value());
    stats_.peak_window_chunks =
        std::max<uint64_t>(stats_.peak_window_chunks, window_.size());
  }
  return Status::OK();
}

bool ElementStream::AssembleFromWindow(ByteRange range,
                                       BufferSlice* out) const {
  const uint64_t chunk_size = prefetcher_->reader().chunk_size();
  const uint64_t first = range.offset / chunk_size;
  const uint64_t last = (range.end() - 1) / chunk_size;
  if (first == last) {
    // Element within one chunk: alias the chunk's buffer, no copy.
    auto it = window_.find(first);
    if (it == window_.end()) return false;
    *out = it->second.Slice(range.offset - first * chunk_size, range.length);
    return out->size() == range.length;
  }
  Bytes assembled;
  assembled.reserve(range.length);
  for (uint64_t c = first; c <= last; ++c) {
    auto it = window_.find(c);
    if (it == window_.end()) return false;
    const BufferSlice& chunk = it->second;
    const uint64_t chunk_start = c * chunk_size;
    const uint64_t from =
        range.offset > chunk_start ? range.offset - chunk_start : 0;
    const uint64_t to =
        std::min<uint64_t>(chunk.size(), range.end() - chunk_start);
    if (from > to) return false;  // Short chunk; treat as a miss.
    assembled.insert(assembled.end(), chunk.begin() + from, chunk.begin() + to);
  }
  if (assembled.size() != range.length) return false;
  *out = BufferSlice(std::move(assembled));
  return true;
}

void ElementStream::EvictBelow(uint64_t min_future_offset) {
  if (prefetcher_ == nullptr) return;
  const uint64_t chunk_size = prefetcher_->reader().chunk_size();
  while (!window_.empty() &&
         (window_.begin()->first + 1) * chunk_size <= min_future_offset) {
    window_.erase(window_.begin());
  }
}

Result<StreamElement> ElementStream::Next() {
  if (Done()) {
    return Status::OutOfRange("element stream exhausted (" +
                              std::to_string(object_.elements.size()) +
                              " elements)");
  }
  obs::ScopedSpan span("interp.stream.next");
  const ElementPlacement& placement = object_.elements[next_element_];
  const ByteRange range = placement.placement;

  Result<BufferSlice> data = BufferSlice{};
  if (!range.empty()) {
    Status pulled = EnsurePrefetcher();
    if (pulled.ok()) {
      // Pull the prefetcher forward far enough to cover this element,
      // at the reader's actual chunk granularity (the store may have
      // rounded the requested size up).
      const uint64_t last_chunk =
          (range.end() - 1) / prefetcher_->reader().chunk_size();
      pulled = AdvanceTo(last_chunk);
    }
    BufferSlice assembled;
    if (pulled.ok() && AssembleFromWindow(range, &assembled)) {
      data = std::move(assembled);
    } else {
      // Out-of-order placement behind the eviction horizon (or a chunk
      // that failed after retries): one direct ranged read.
      ++stats_.fallback_element_reads;
      data = ReadWithPolicy(store_, blob_, range, options_.policy);
    }
  }

  ++next_element_;
  EvictBelow(suffix_min_offset_[next_element_]);
  if (!data.ok()) {
    return data.status().WithContext(
        "element " + std::to_string(placement.element_number) + " of '" +
        object_.name + "'");
  }
  ++stats_.elements_delivered;
  StreamElement element;
  element.data = std::move(data).value();
  element.start = placement.start;
  element.duration = placement.duration;
  element.descriptor = placement.descriptor;
  return element;
}

ElementStreamStats ElementStream::stats() const {
  ElementStreamStats stats = stats_;
  if (prefetcher_ != nullptr) stats.prefetch = prefetcher_->stats();
  return stats;
}

Result<TimedStream> MaterializeStreamed(const BlobStore& store,
                                        const Interpretation& interpretation,
                                        const std::string& name,
                                        const StreamReadOptions& options,
                                        std::optional<TickSpan> span) {
  TBM_ASSIGN_OR_RETURN(std::unique_ptr<ElementStream> stream,
                       ElementStream::Open(store, interpretation, name,
                                           options, span));
  return MaterializeStreamed(stream.get());
}

Result<TimedStream> MaterializeStreamed(ElementStream* stream) {
  TimedStream out(stream->descriptor(), stream->time_system());
  while (!stream->Done()) {
    TBM_ASSIGN_OR_RETURN(StreamElement element, stream->Next());
    TBM_RETURN_IF_ERROR(out.Append(std::move(element)));
  }
  return out;
}

}  // namespace tbm
