#include "playback/admission.h"

#include <algorithm>

#include "base/macros.h"
#include "obs/metrics.h"

namespace tbm {

namespace {

/// Process-wide admission-control metrics.
struct AdmissionMetrics {
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* released;
  obs::Counter* degraded;
  obs::Gauge* booked_bytes_per_second;

  static const AdmissionMetrics& Get() {
    static const AdmissionMetrics metrics = [] {
      auto& registry = obs::Registry::Global();
      return AdmissionMetrics{
          registry.counter("admission.admitted"),
          registry.counter("admission.rejected"),
          registry.counter("admission.released"),
          registry.counter("admission.degraded"),
          registry.gauge("admission.booked_bytes_per_second")};
    }();
    return metrics;
  }
};

}  // namespace

RateProfile MeasureRateProfile(const TimedStream& stream) {
  RateProfile profile;
  double seconds = stream.DurationSeconds().ToDouble();
  if (stream.empty() || seconds <= 0.0) {
    // Degenerate streams (still images, events only): everything is a
    // burst; average over zero time is reported as the byte total.
    profile.average_bytes_per_second = static_cast<double>(stream.TotalBytes());
    profile.peak_bytes_per_second = profile.average_bytes_per_second;
    return profile;
  }
  profile.average_bytes_per_second = stream.MeanDataRate();

  // Peak over sliding 1-second windows: two-pointer sweep anchored at
  // each element's start.
  const int64_t window = stream.time_system().FromSeconds(Rational(1));
  uint64_t window_bytes = 0;
  size_t tail = 0;
  for (size_t head = 0; head < stream.size(); ++head) {
    window_bytes += stream.at(head).data.size();
    while (stream.at(tail).start + window <= stream.at(head).start) {
      window_bytes -= stream.at(tail).data.size();
      ++tail;
    }
    profile.peak_bytes_per_second =
        std::max(profile.peak_bytes_per_second,
                 static_cast<double>(window_bytes));
  }
  profile.peak_bytes_per_second =
      std::max(profile.peak_bytes_per_second,
               profile.average_bytes_per_second);
  return profile;
}

void AnnotateRateProfile(MediaDescriptor* descriptor,
                         const RateProfile& profile) {
  descriptor->attrs.SetDouble("average data rate",
                              profile.average_bytes_per_second);
  descriptor->attrs.SetDouble("peak data rate",
                              profile.peak_bytes_per_second);
}

Result<RateProfile> RateProfileFromDescriptor(
    const MediaDescriptor& descriptor) {
  RateProfile profile;
  TBM_ASSIGN_OR_RETURN(profile.average_bytes_per_second,
                       descriptor.attrs.GetDouble("average data rate"));
  TBM_ASSIGN_OR_RETURN(profile.peak_bytes_per_second,
                       descriptor.attrs.GetDouble("peak data rate"));
  return profile;
}

Status AdmissionController::Admit(const std::string& session,
                                  const MediaDescriptor& descriptor) {
  TBM_ASSIGN_OR_RETURN(RateProfile profile,
                       RateProfileFromDescriptor(descriptor));
  return AdmitDegrading(session, profile, 1).status();
}

Result<AdmissionController::AdmitDecision> AdmissionController::AdmitDegrading(
    const std::string& session, const RateProfile& profile, int max_stride) {
  if (sessions_.count(session) > 0) {
    return Status::AlreadyExists("session \"" + session +
                                 "\" already admitted");
  }
  double booking = BookingFor(profile);
  if (booking <= 0.0) {
    return Status::InvalidArgument("descriptor has non-positive data rate");
  }
  if (max_stride < 1) max_stride = 1;
  for (int stride = 1; stride <= max_stride; stride *= 2) {
    double tier = booking / stride;
    if (booked_ + tier > capacity_) continue;
    booked_ += tier;
    sessions_.emplace(session, tier);
    AdmissionMetrics::Get().admitted->Add();
    if (stride > 1) AdmissionMetrics::Get().degraded->Add();
    AdmissionMetrics::Get().booked_bytes_per_second->Set(
        static_cast<int64_t>(booked_));
    AdmitDecision decision;
    decision.stride = stride;
    decision.booked_bytes_per_second = tier;
    return decision;
  }
  AdmissionMetrics::Get().rejected->Add();
  return Status::ResourceExhausted(
      "admitting \"" + session + "\" needs " + HumanRate(booking) +
      " (" + HumanRate(booking / max_stride) + " at max stride " +
      std::to_string(max_stride) + ") but only " + HumanRate(available()) +
      " of " + HumanRate(capacity_) + " remain");
}

Status AdmissionController::Rebook(const std::string& session,
                                   double new_bytes_per_second) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Status::NotFound("no session \"" + session + "\"");
  }
  if (new_bytes_per_second <= 0.0) {
    return Status::InvalidArgument("non-positive booking");
  }
  double delta = new_bytes_per_second - it->second;
  if (delta > 0.0 && booked_ + delta > capacity_) {
    return Status::ResourceExhausted(
        "rebooking \"" + session + "\" to " + HumanRate(new_bytes_per_second) +
        " needs " + HumanRate(delta) + " more but only " +
        HumanRate(available()) + " remain");
  }
  booked_ += delta;
  it->second = new_bytes_per_second;
  AdmissionMetrics::Get().booked_bytes_per_second->Set(
      static_cast<int64_t>(booked_));
  return Status::OK();
}

Status AdmissionController::Release(const std::string& session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return Status::NotFound("no session \"" + session + "\"");
  }
  booked_ -= it->second;
  sessions_.erase(it);
  AdmissionMetrics::Get().released->Add();
  AdmissionMetrics::Get().booked_bytes_per_second->Set(
      static_cast<int64_t>(booked_));
  return Status::OK();
}

}  // namespace tbm
