// Tests for rate profiles and descriptor-driven admission control —
// the paper's §4.1 "descriptors should also contain information that
// helps allocate resources for playback" and §6 "resource allocation".
#include <gtest/gtest.h>

#include "blob/memory_store.h"
#include "codec/pcm.h"
#include "codec/synthetic.h"
#include "interp/av_capture.h"
#include "playback/admission.h"

namespace tbm {
namespace {

MediaDescriptor AudioDesc() {
  MediaDescriptor desc;
  desc.type_name = "audio/pcm-block";
  desc.kind = MediaKind::kAudio;
  return desc;
}

// Constant-rate stream: `rate` elements/s of `bytes` each.
TimedStream CbrStream(int64_t elements, size_t bytes, int64_t rate) {
  TimedStream stream(AudioDesc(), TimeSystem(rate));
  for (int64_t i = 0; i < elements; ++i) {
    EXPECT_TRUE(stream.AppendContiguous(Bytes(bytes, 0), 1).ok());
  }
  return stream;
}

TEST(RateProfileTest, ConstantRateStream) {
  // 25 el/s of 4000 B = 100 kB/s, no burstiness.
  TimedStream stream = CbrStream(100, 4000, 25);
  RateProfile profile = MeasureRateProfile(stream);
  EXPECT_NEAR(profile.average_bytes_per_second, 100000.0, 1.0);
  EXPECT_NEAR(profile.peak_bytes_per_second, 100000.0, 1.0);
  EXPECT_NEAR(profile.Burstiness(), 1.0, 0.01);
}

TEST(RateProfileTest, BurstyStreamHasHigherPeak) {
  // One second of big elements followed by nine seconds of small ones.
  TimedStream stream(AudioDesc(), TimeSystem(25));
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(stream.AppendContiguous(Bytes(20000, 0), 1).ok());
  }
  for (int i = 0; i < 225; ++i) {
    ASSERT_TRUE(stream.AppendContiguous(Bytes(1000, 0), 1).ok());
  }
  RateProfile profile = MeasureRateProfile(stream);
  // Average: (25*20000 + 225*1000) / 10 s = 72.5 kB/s; peak ~500 kB/s.
  EXPECT_NEAR(profile.average_bytes_per_second, 72500.0, 10.0);
  EXPECT_GT(profile.peak_bytes_per_second, 400000.0);
  EXPECT_GT(profile.Burstiness(), 5.0);
}

TEST(RateProfileTest, DescriptorRoundTrip) {
  TimedStream stream = CbrStream(50, 1000, 25);
  RateProfile profile = MeasureRateProfile(stream);
  MediaDescriptor desc = AudioDesc();
  EXPECT_TRUE(RateProfileFromDescriptor(desc).status().IsNotFound());
  AnnotateRateProfile(&desc, profile);
  auto restored = RateProfileFromDescriptor(desc);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->average_bytes_per_second,
            profile.average_bytes_per_second);
  EXPECT_EQ(restored->peak_bytes_per_second, profile.peak_bytes_per_second);
}

TEST(RateProfileTest, CaptureAnnotatesDescriptors) {
  // CaptureInterleavedAv writes the rates the paper asks for.
  MemoryBlobStore store;
  std::vector<Image> frames = videogen::Clip(64, 48, 25, 3);
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.5, 1.1);
  auto result =
      CaptureInterleavedAv(&store, frames, audio, AvCaptureConfig{});
  ASSERT_TRUE(result.ok());
  auto video = result->interpretation.FindObject("video1");
  ASSERT_TRUE(video.ok());
  auto profile = RateProfileFromDescriptor((*video)->descriptor);
  ASSERT_TRUE(profile.ok()) << profile.status();
  EXPECT_GT(profile->average_bytes_per_second, 0.0);
  EXPECT_GE(profile->peak_bytes_per_second,
            profile->average_bytes_per_second * 0.99);
  auto audio_obj = result->interpretation.FindObject("audio1");
  ASSERT_TRUE(audio_obj.ok());
  auto audio_profile = RateProfileFromDescriptor((*audio_obj)->descriptor);
  ASSERT_TRUE(audio_profile.ok());
  EXPECT_NEAR(audio_profile->average_bytes_per_second, 176400.0, 1.0);
}

TEST(AdmissionTest, AdmitsUntilCapacityThenRejects) {
  AdmissionController controller(1000000.0,  // 1 MB/s server.
                                 AdmissionController::Policy::kAverageRate);
  MediaDescriptor desc = AudioDesc();
  AnnotateRateProfile(&desc, RateProfile{300000.0, 450000.0});
  EXPECT_TRUE(controller.Admit("client1", desc).ok());
  EXPECT_TRUE(controller.Admit("client2", desc).ok());
  EXPECT_TRUE(controller.Admit("client3", desc).ok());
  EXPECT_NEAR(controller.booked(), 900000.0, 1.0);
  // Fourth client would need 300 kB/s; only 100 kB/s remain.
  Status status = controller.Admit("client4", desc);
  EXPECT_TRUE(status.IsResourceExhausted());
  // Releasing one readmits.
  ASSERT_TRUE(controller.Release("client2").ok());
  EXPECT_TRUE(controller.Admit("client4", desc).ok());
  EXPECT_EQ(controller.session_count(), 3u);
}

TEST(AdmissionTest, PeakPolicyIsMoreConservative) {
  MediaDescriptor desc = AudioDesc();
  AnnotateRateProfile(&desc, RateProfile{300000.0, 600000.0});
  AdmissionController average(1000000.0,
                              AdmissionController::Policy::kAverageRate);
  AdmissionController peak(1000000.0,
                           AdmissionController::Policy::kPeakRate);
  EXPECT_TRUE(average.Admit("a", desc).ok());
  EXPECT_TRUE(average.Admit("b", desc).ok());
  EXPECT_TRUE(average.Admit("c", desc).ok());  // 3 x 300k fits.
  EXPECT_TRUE(peak.Admit("a", desc).ok());
  EXPECT_TRUE(peak.Admit("b", desc).IsResourceExhausted());  // 2 x 600k > 1M.
}

TEST(AdmissionTest, Validation) {
  AdmissionController controller(500000.0,
                                 AdmissionController::Policy::kAverageRate);
  MediaDescriptor no_rates = AudioDesc();
  EXPECT_TRUE(controller.Admit("x", no_rates).IsNotFound());
  MediaDescriptor desc = AudioDesc();
  AnnotateRateProfile(&desc, RateProfile{100000.0, 100000.0});
  ASSERT_TRUE(controller.Admit("x", desc).ok());
  EXPECT_TRUE(controller.Admit("x", desc).IsAlreadyExists());
  EXPECT_TRUE(controller.Release("y").IsNotFound());
  MediaDescriptor zero = AudioDesc();
  AnnotateRateProfile(&zero, RateProfile{0.0, 0.0});
  EXPECT_TRUE(controller.Admit("z", zero).IsInvalidArgument());
}

TEST(AdmissionTest, AdmitDegradingSkipsDescriptorAnnotations) {
  AdmissionController controller(500000.0,
                                 AdmissionController::Policy::kAverageRate);
  RateProfile profile{200000.0, 220000.0};
  EXPECT_TRUE(controller.AdmitDegrading("a", profile, 1).ok());
  EXPECT_TRUE(controller.AdmitDegrading("b", profile, 1).ok());
  EXPECT_TRUE(controller.AdmitDegrading("c", profile, 1)
                  .status()
                  .IsResourceExhausted());
  EXPECT_TRUE(
      controller.AdmitDegrading("a", profile, 1).status().IsAlreadyExists());
  EXPECT_TRUE(controller.AdmitDegrading("z", RateProfile{0.0, 0.0}, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_NEAR(controller.booked(), 400000.0, 1.0);
}

TEST(AdmissionTest, DegradesBeforeDenying) {
  AdmissionController controller(1000000.0,
                                 AdmissionController::Policy::kAverageRate);
  RateProfile profile{400000.0, 400000.0};

  // Two full-fidelity sessions fit (800k of 1M).
  auto first = controller.AdmitDegrading("s1", profile, 8);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stride, 1);
  EXPECT_FALSE(first->degraded());
  auto second = controller.AdmitDegrading("s2", profile, 8);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stride, 1);

  // The third doesn't fit at 400k but does at stride 2 (200k), which
  // books the server to exactly its capacity.
  auto third = controller.AdmitDegrading("s3", profile, 8);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stride, 2);
  EXPECT_TRUE(third->degraded());
  EXPECT_NEAR(third->booked_bytes_per_second, 200000.0, 1.0);
  EXPECT_NEAR(controller.booked(), 1000000.0, 1.0);

  // A full server denies even the thinnest tier — but only after the
  // degrade ladder (stride up to 8) was tried.
  auto denied = controller.AdmitDegrading("s4", profile, 8);
  EXPECT_TRUE(denied.status().IsResourceExhausted());

  // Freeing a full-rate session readmits at full fidelity.
  ASSERT_TRUE(controller.Release("s1").ok());
  auto readmitted = controller.AdmitDegrading("s4", profile, 8);
  ASSERT_TRUE(readmitted.ok());
  EXPECT_EQ(readmitted->stride, 1);
  EXPECT_LE(controller.booked(), controller.capacity());
}

TEST(AdmissionTest, RebookAdjustsBookingInPlace) {
  AdmissionController controller(1000000.0,
                                 AdmissionController::Policy::kAverageRate);
  ASSERT_TRUE(
      controller.AdmitDegrading("s1", RateProfile{600000.0, 600000.0}, 1).ok());
  EXPECT_TRUE(controller.Rebook("ghost", 1.0).IsNotFound());
  EXPECT_TRUE(controller.Rebook("s1", 0.0).IsInvalidArgument());

  // Degrade to half rate mid-session; the freed capacity admits more.
  ASSERT_TRUE(controller.Rebook("s1", 300000.0).ok());
  EXPECT_NEAR(controller.booked(), 300000.0, 1.0);
  ASSERT_TRUE(
      controller.AdmitDegrading("s2", RateProfile{600000.0, 600000.0}, 1).ok());

  // An increase that no longer fits fails and keeps the old booking.
  EXPECT_TRUE(controller.Rebook("s1", 600000.0).IsResourceExhausted());
  EXPECT_NEAR(controller.booked(), 900000.0, 1.0);
  ASSERT_TRUE(controller.Rebook("s1", 400000.0).ok());  // Fits exactly.
  EXPECT_NEAR(controller.booked(), 1000000.0, 1.0);
}

TEST(AdmissionTest, EndToEndFromCapturedDescriptors) {
  // Server sizing straight from captured metadata: a 1 MB/s server
  // admits two of our ~0.38 MB/s VHS-quality clips plus audio, not
  // three.
  MemoryBlobStore store;
  std::vector<Image> frames = videogen::Clip(160, 120, 25, 9);
  AudioBuffer audio = audiogen::Sine(44100, 2, 440.0, 0.5, 1.1);
  auto capture =
      CaptureInterleavedAv(&store, frames, audio, AvCaptureConfig{});
  ASSERT_TRUE(capture.ok());
  auto video = capture->interpretation.FindObject("video1");
  ASSERT_TRUE(video.ok());

  AdmissionController controller(250000.0,
                                 AdmissionController::Policy::kAverageRate);
  int admitted = 0;
  for (int client = 0; client < 10; ++client) {
    if (controller
            .Admit("client" + std::to_string(client), (*video)->descriptor)
            .ok()) {
      ++admitted;
    }
  }
  EXPECT_GT(admitted, 0);
  EXPECT_LT(admitted, 10);
  EXPECT_LE(controller.booked(), controller.capacity());
}

}  // namespace
}  // namespace tbm
