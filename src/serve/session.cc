#include "serve/session.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "base/macros.h"
#include "obs/metrics.h"

namespace tbm::serve {

namespace {

/// Byte cap per READ batch (bounds frame size and send latency); an
/// element larger than the cap still goes out, alone in its batch.
constexpr uint64_t kResponseByteCap = 4ull << 20;

/// An element read slower than this lands in the flight recorder as a
/// SLOW_READ event.
constexpr uint64_t kSlowReadUs = 10'000;

}  // namespace

Result<std::unique_ptr<Session>> Session::Create(
    uint64_t id, std::string object_name, const BlobStore* store,
    const Interpretation& interpretation, const std::string& stream_name,
    Config config) {
  TBM_ASSIGN_OR_RETURN(
      std::unique_ptr<ElementStream> stream,
      ElementStream::Open(*store, interpretation, stream_name,
                          config.read_options, /*span=*/{},
                          ElementSelection{.stride = config.stride}));
  return std::unique_ptr<Session>(
      new Session(id, std::move(object_name), std::move(stream), config));
}

Session::Session(uint64_t id, std::string object_name,
                 std::unique_ptr<ElementStream> stream, Config config)
    : id_(id),
      object_name_(std::move(object_name)),
      config_(config),
      degraded_(config.stride > 1),
      booked_(config.booked_bytes_per_second),
      stream_(std::move(stream)) {
  if (config_.stream_id != 0 || config_.connection_id != 0) {
    flight_.set_label("conn " + std::to_string(config_.connection_id) +
                      " stream " + std::to_string(config_.stream_id) +
                      " session " + std::to_string(id_) + " " + object_name_);
  } else {
    flight_.set_label("session " + std::to_string(id_) + " " + object_name_);
  }
  flight_.Record(obs::FlightEventType::kAdmit,
                 degraded_ ? "admitted degraded" : "admitted", stride(),
                 static_cast<uint64_t>(booked_));
}

void Session::AdoptTrace(uint64_t trace_id) {
  if (trace_id == 0) return;
  trace_id_ = trace_id;
  flight_.Record(obs::FlightEventType::kNote, "adopted client trace",
                 trace_id);
}

Result<ReadBatch> Session::ReadNext(uint64_t max_elements) {
  if (Terminal()) {
    return Status::FailedPrecondition(
        "session is " + std::string(SessionStateToString(state())));
  }
  if (state() != SessionState::kStreaming) {
    flight_.Record(obs::FlightEventType::kState, "STREAMING",
                   stream_->position());
  }
  state_.store(SessionState::kStreaming, std::memory_order_release);

  ReadBatch batch;
  batch.stride = stride();
  if (max_elements == 0) max_elements = 1;
  uint64_t batch_bytes = 0;
  while (batch.elements.size() < max_elements && !stream_->Done()) {
    const uint64_t index = stream_->position();
    const ElementPlacement& placement =
        stream_->object().elements[static_cast<size_t>(index)];
    if (!batch.elements.empty() &&
        batch_bytes + placement.placement.length > kResponseByteCap) {
      break;  // Keep each response frame (and its send latency) bounded.
    }
    // In TBM_OBS_DISABLED builds NowTicksNs() is inline 0 and Record()
    // a no-op, so this timing folds away entirely.
    const int64_t start_ns = obs::NowTicksNs();
    Result<StreamElement> element = stream_->Next();
    const uint64_t elapsed_us =
        static_cast<uint64_t>(
            std::max<int64_t>(0, obs::NowTicksNs() - start_ns)) /
        1000;
    if (!element.ok()) {
      // A read that failed after every retry costs the element, not
      // the session: skip it and finish DEGRADED.
      flight_.Record(obs::FlightEventType::kFault,
                     "element read failed after retries", index, elapsed_us);
      ++skipped_;
      degraded_ = true;
      continue;
    }
    if (elapsed_us > kSlowReadUs) {
      flight_.Record(obs::FlightEventType::kSlowRead,
                     "element read over threshold", index, elapsed_us);
    }
    WireElement wire;
    wire.element_number = static_cast<uint64_t>(placement.element_number);
    wire.start = placement.start;
    wire.duration = placement.duration;
    wire.payload = std::move(element->data);
    batch_bytes += wire.payload.size();
    bytes_sent_ += wire.payload.size();
    ++delivered_;
    batch.elements.push_back(std::move(wire));
  }
  if (stream_->Done()) {
    batch.end_of_stream = true;
    Finish();
  }
  return batch;
}

Result<uint64_t> Session::SeekTo(uint64_t element) {
  if (Terminal()) {
    return Status::FailedPrecondition(
        "session is " + std::string(SessionStateToString(state())));
  }
  if (element >= stream_->size()) {
    return Status::OutOfRange("seek to element " + std::to_string(element) +
                              " of " + std::to_string(stream_->size()));
  }
  TBM_RETURN_IF_ERROR(stream_->Reposition(
      {.first = static_cast<size_t>(element), .stride = stride()}));
  flight_.Record(obs::FlightEventType::kSeek, "seek", element);
  state_.store(SessionState::kStreaming, std::memory_order_release);
  return element;
}

void Session::Degrade() {
  if (Terminal()) return;
  const uint32_t old_stride = stride();
  // Cannot fail: the doubled stride is >= 2.
  (void)stream_->Reposition(
      {.first = stream_->position(), .stride = old_stride * 2});
  degraded_ = true;
  flight_.Record(obs::FlightEventType::kDegrade, "stride doubled", old_stride,
                 stride());
}

void Session::MarkEvicted(const char* cause) {
  flight_.Record(obs::FlightEventType::kEvict,
                 cause != nullptr ? cause : "server-initiated eviction",
                 stream_->position());
  state_.store(SessionState::kEvicted, std::memory_order_release);
}

void Session::MarkClosed() {
  if (Terminal()) return;
  flight_.Record(obs::FlightEventType::kNote, "client closed early",
                 stream_->position());
  Finish();
}

void Session::Finish() {
  flight_.Record(obs::FlightEventType::kState,
                 degraded_ ? "DEGRADED" : "DONE", delivered_, skipped_);
  state_.store(degraded_ ? SessionState::kDegraded : SessionState::kDone,
               std::memory_order_release);
}

std::string Session::DumpFlight(std::string_view cause) const {
  char header[224];
  std::snprintf(header, sizeof(header),
                "session %llu conn=%llu stream=%llu object=%s state=%s "
                "stride=%u trace=0x%llx\n",
                (unsigned long long)id_,
                (unsigned long long)config_.connection_id,
                (unsigned long long)config_.stream_id, object_name_.c_str(),
                std::string(SessionStateToString(state())).c_str(), stride(),
                (unsigned long long)trace_id_);
  std::string dump = flight_.Dump(cause);
  if (dump.empty()) return dump;  // TBM_OBS_DISABLED: nothing recorded.
  return header + dump;
}

SessionStatsWire Session::StatsWire() const {
  SessionStatsWire stats;
  stats.state = state();
  stats.elements_delivered = delivered_;
  stats.elements_skipped = skipped_;
  stats.bytes_sent = bytes_sent_;
  stats.stride = stride();
  return stats;
}

}  // namespace tbm::serve
