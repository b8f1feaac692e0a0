#include "playback/streaming.h"

#include <algorithm>
#include <utility>

#include "base/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tbm {

namespace {

struct StreamedMetrics {
  obs::Counter* plays;
  obs::Counter* elements;
  obs::Counter* skipped;
  obs::Histogram* fetch_us;

  static const StreamedMetrics& Get() {
    static const StreamedMetrics metrics = [] {
      auto& registry = obs::Registry::Global();
      return StreamedMetrics{registry.counter("playback.streamed.plays"),
                             registry.counter("playback.streamed.elements"),
                             registry.counter("playback.streamed.skipped"),
                             registry.histogram("playback.streamed.fetch_us")};
    }();
    return metrics;
  }
};

}  // namespace

RateProfile MeasureRateProfileFromPlacements(const InterpretedObject& object) {
  RateProfile profile;
  uint64_t total_bytes = object.PayloadBytes();
  if (object.elements.empty()) return profile;
  const int64_t span_ticks = object.EndTime() - object.elements.front().start;
  const double seconds = object.time_system.ToSecondsF(span_ticks);
  if (seconds <= 0.0) {
    // Degenerate objects (still images, zero-duration events): report
    // the byte total as an instantaneous burst, like MeasureRateProfile.
    profile.average_bytes_per_second = static_cast<double>(total_bytes);
    profile.peak_bytes_per_second = profile.average_bytes_per_second;
    return profile;
  }
  profile.average_bytes_per_second = static_cast<double>(total_bytes) / seconds;

  // Peak over sliding 1-second windows anchored at element starts —
  // the same sweep MeasureRateProfile runs, but over placement lengths
  // instead of materialized element bytes.
  const int64_t window = object.time_system.FromSeconds(Rational(1));
  uint64_t window_bytes = 0;
  size_t tail = 0;
  for (size_t head = 0; head < object.elements.size(); ++head) {
    window_bytes += object.elements[head].placement.length;
    while (object.elements[tail].start + window <=
           object.elements[head].start) {
      window_bytes -= object.elements[tail].placement.length;
      ++tail;
    }
    profile.peak_bytes_per_second = std::max(
        profile.peak_bytes_per_second, static_cast<double>(window_bytes));
  }
  profile.peak_bytes_per_second = std::max(profile.peak_bytes_per_second,
                                           profile.average_bytes_per_second);
  return profile;
}

Result<StreamedPlaybackReport> PlayStreamed(
    const BlobStore& store, const Interpretation& interpretation,
    const std::vector<std::string>& names, const PlaybackConfig& config,
    const StreamReadOptions& read_options) {
  obs::ScopedSpan span("playback.play_streamed");
  const auto& metrics = StreamedMetrics::Get();
  metrics.plays->Add();

  StreamedPlaybackReport report;
  std::vector<TimedStream> assembled;
  assembled.reserve(names.size());

  const int64_t fetch_start_ns = obs::NowTicksNs();
  for (const std::string& name : names) {
    TBM_ASSIGN_OR_RETURN(
        std::unique_ptr<ElementStream> stream,
        ElementStream::Open(store, interpretation, name, read_options));
    TimedStream out(stream->descriptor(), stream->time_system());
    while (!stream->Done()) {
      Result<StreamElement> element = stream->Next();
      if (!element.ok()) {
        // A failed element is a presentation glitch, not an abort:
        // drop it and keep streaming (the deadlines are soft).
        ++report.elements_skipped;
        metrics.skipped->Add();
        continue;
      }
      metrics.elements->Add();
      TBM_RETURN_IF_ERROR(out.Append(std::move(element).value()));
    }
    report.read_stats.push_back(stream->stats());
    assembled.push_back(std::move(out));
  }
  report.fetch_wall_us = static_cast<uint64_t>(
      std::max<int64_t>(0, obs::NowTicksNs() - fetch_start_ns) / 1000);
  metrics.fetch_us->Record(report.fetch_wall_us);

  std::vector<const TimedStream*> pointers;
  pointers.reserve(assembled.size());
  for (const TimedStream& stream : assembled) pointers.push_back(&stream);
  TBM_ASSIGN_OR_RETURN(report.playback, SimulatePlayback(pointers, config));
  return report;
}

}  // namespace tbm
