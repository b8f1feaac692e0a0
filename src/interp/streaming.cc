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
    std::optional<TickSpan> span, ElementSelection selection) {
  TBM_RETURN_IF_ERROR(options.Validate());
  TBM_ASSIGN_OR_RETURN(const InterpretedObject* object,
                       interpretation.FindObject(name));
  InterpretedObject selected = *object;
  if (span.has_value()) {
    std::erase_if(selected.elements, [&](const ElementPlacement& e) {
      return e.duration == 0 ? !span->Contains(e.start)
                             : !TickSpan{e.start, e.duration}.Overlaps(*span);
    });
  }
  auto stream = std::unique_ptr<ElementStream>(new ElementStream(
      store, interpretation.blob(), std::move(selected), options));
  TBM_RETURN_IF_ERROR(stream->Reposition(selection));
  return stream;
}

ElementStream::ElementStream(const BlobStore& store, BlobId blob,
                             InterpretedObject object,
                             StreamReadOptions options)
    : store_(store),
      blob_(blob),
      object_(std::move(object)),
      options_(options) {}

Status ElementStream::Reposition(ElementSelection selection) {
  if (selection.stride == 0) {
    return Status::InvalidArgument("stride must be >= 1");
  }
  prefetcher_.reset();  // Waits for its in-flight chunk reads.
  window_.clear();
  next_element_ = selection.first;
  stride_ = selection.stride;
  return Status::OK();
}

Status ElementStream::EnsurePrefetcher() {
  if (prefetcher_ != nullptr) return Status::OK();
  // Opened on first use rather than in Open() or Reposition() so
  // readahead does not start before the first Next().
  TBM_ASSIGN_OR_RETURN(std::unique_ptr<ChunkReader> reader,
                       store_.OpenChunkReader(blob_, options_));
  // The plan: every chunk that a selected element from here on touches,
  // ascending. Bytes of other objects, unselected elements, or past the
  // BLOB end are never read.
  const uint64_t chunk_size = reader->chunk_size();
  const uint64_t blob_size = reader->blob_size();
  const size_t n = object_.elements.size();
  std::vector<bool> touched(reader->chunk_count());
  suffix_min_offset_.assign(n + 1, std::numeric_limits<uint64_t>::max());
  for (size_t i = n; i-- > next_element_;) {
    suffix_min_offset_[i] = suffix_min_offset_[i + 1];
    const ByteRange& range = object_.elements[i].placement;
    if ((i - next_element_) % stride_ != 0 || range.empty()) continue;
    suffix_min_offset_[i] = std::min(suffix_min_offset_[i], range.offset);
    if (range.offset >= blob_size) continue;
    const uint64_t end =
        range.offset + std::min(range.length, blob_size - range.offset);
    for (uint64_t c = range.offset / chunk_size; c <= (end - 1) / chunk_size;
         ++c) {
      touched[c] = true;
    }
  }
  std::vector<uint64_t> chunks;
  for (uint64_t c = 0; c < touched.size(); ++c) {
    if (touched[c]) chunks.push_back(c);
  }

  next_pull_ = 0;
  prefetcher_ = std::make_unique<AsyncPrefetcher>(std::move(reader), options_,
                                                  std::move(chunks));
  return Status::OK();
}

Status ElementStream::AdvanceTo(uint64_t chunk) {
  const std::vector<uint64_t>& plan = prefetcher_->chunks();
  while (next_pull_ < plan.size() && plan[next_pull_] <= chunk) {
    const uint64_t index = plan[next_pull_++];
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

void ElementStream::EvictConsumed() {
  if (prefetcher_ == nullptr) return;
  const uint64_t min_future_offset =
      suffix_min_offset_[std::min(next_element_, object_.elements.size())];
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

  next_element_ += stride_;
  EvictConsumed();
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
