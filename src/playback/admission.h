#ifndef TBM_PLAYBACK_ADMISSION_H_
#define TBM_PLAYBACK_ADMISSION_H_

#include <map>
#include <string>

#include "base/result.h"
#include "media/descriptor.h"
#include "stream/timed_stream.h"

namespace tbm {

/// Resource-allocation metadata the paper says belongs in media
/// descriptors (§4.1: "The descriptors should also contain information
/// that helps allocate resources for playback, this could include the
/// average data rate for each stream, a measure of data rate variation
/// (for non-uniform streams)...").
struct RateProfile {
  double average_bytes_per_second = 0.0;
  double peak_bytes_per_second = 0.0;  ///< Max over 1-second windows.

  double Burstiness() const {
    return average_bytes_per_second > 0
               ? peak_bytes_per_second / average_bytes_per_second
               : 0.0;
  }
};

/// Computes a stream's rate profile (peak measured over sliding
/// one-second windows of its time system).
RateProfile MeasureRateProfile(const TimedStream& stream);

/// Writes the profile into a media descriptor as the attributes
/// "average data rate" and "peak data rate" (bytes/second).
void AnnotateRateProfile(MediaDescriptor* descriptor,
                         const RateProfile& profile);

/// Reads a profile back from descriptor attributes; NotFound if the
/// descriptor was never annotated.
Result<RateProfile> RateProfileFromDescriptor(
    const MediaDescriptor& descriptor);

/// Admission control for a continuous-media server (paper §5 cites the
/// CM I/O server and continuous media player as precursors; §6 names
/// "resource allocation" as a required architecture change).
///
/// The server owns a fixed service bandwidth. Sessions are admitted by
/// *descriptor metadata alone* — no media bytes are touched — using
/// either average-rate booking (optimistic) or peak-rate booking
/// (conservative).
class AdmissionController {
 public:
  enum class Policy {
    kAverageRate,  ///< Book the average rate (allows oversubscription
                   ///< bursts).
    kPeakRate,     ///< Book the peak rate (guaranteed service).
  };

  AdmissionController(double capacity_bytes_per_second, Policy policy)
      : capacity_(capacity_bytes_per_second), policy_(policy) {}

  double capacity() const { return capacity_; }
  double booked() const { return booked_; }
  double available() const { return capacity_ - booked_; }

  /// Outcome of a degrading admission attempt. `stride` is the frame
  /// stride the session was admitted at: 1 means full fidelity, 2^k
  /// means serve every 2^k-th element, booking 1/2^k of the rate — the
  /// graceful-degradation lever a scalable-stream server pulls under
  /// pressure instead of denying service outright.
  struct AdmitDecision {
    int stride = 1;
    double booked_bytes_per_second = 0.0;
    bool degraded() const { return stride > 1; }
  };

  /// Attempts to admit a session playing a stream with the given
  /// descriptor. ResourceExhausted when the booking would exceed
  /// capacity; NotFound if the descriptor lacks rate annotations.
  Status Admit(const std::string& session, const MediaDescriptor& descriptor);

  /// Degrade-before-deny admission: tries full fidelity first, then
  /// doubles the stride (halving the booked rate) up to `max_stride`,
  /// and denies (ResourceExhausted) only when even the thinnest tier
  /// does not fit. `max_stride` is clamped to a power of two >= 1.
  /// With `max_stride` 1 it admits at full fidelity or not at all: the
  /// metadata-only path for callers that computed the profile from
  /// placements (MeasureRateProfileFromPlacements) rather than
  /// descriptor annotations.
  Result<AdmitDecision> AdmitDegrading(const std::string& session,
                                       const RateProfile& profile,
                                       int max_stride);

  /// Re-prices an admitted session's booking (e.g. a mid-session
  /// degrade after the server detects pressure). Decreases always
  /// succeed; an increase that would exceed capacity fails
  /// ResourceExhausted and leaves the old booking intact.
  Status Rebook(const std::string& session, double new_bytes_per_second);

  /// Releases a session's booking.
  Status Release(const std::string& session);

  size_t session_count() const { return sessions_.size(); }

 private:
  double BookingFor(const RateProfile& profile) const {
    return policy_ == Policy::kPeakRate ? profile.peak_bytes_per_second
                                        : profile.average_bytes_per_second;
  }

  double capacity_;
  Policy policy_;
  double booked_ = 0.0;
  std::map<std::string, double> sessions_;
};

}  // namespace tbm

#endif  // TBM_PLAYBACK_ADMISSION_H_
