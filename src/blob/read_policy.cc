#include "blob/read_policy.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "blob/blob_store.h"
#include "obs/metrics.h"

namespace tbm {

namespace {

struct RetryMetrics {
  obs::Counter* retries;
  obs::Counter* gave_up;

  static const RetryMetrics& Get() {
    static const RetryMetrics metrics = [] {
      auto& registry = obs::Registry::Global();
      return RetryMetrics{registry.counter("blob.read_retries"),
                          registry.counter("blob.read_gave_up")};
    }();
    return metrics;
  }
};

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// True iff `status` is an error a retry may clear.
bool IsTransientReadError(const Status& status) {
  return status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kResourceExhausted;
}

}  // namespace

Result<BufferSlice> ReadWithPolicy(const BlobStore& store, BlobId id,
                                   ByteRange range, const ReadPolicy& policy) {
  const auto start = std::chrono::steady_clock::now();
  double delay_us = policy.backoff_initial_us;
  int attempt = 0;
  while (true) {
    Result<BufferSlice> result = store.Read(id, range);
    if (result.ok() || !IsTransientReadError(result.status())) {
      return result;
    }
    if (attempt >= policy.max_retries) {
      if (policy.max_retries > 0) RetryMetrics::Get().gave_up->Add();
      return result.status().WithContext(
          "read failed after " + std::to_string(attempt + 1) + " attempt(s)");
    }
    if (policy.timeout_us > 0 &&
        ElapsedUs(start) + delay_us > policy.timeout_us) {
      RetryMetrics::Get().gave_up->Add();
      return result.status().WithContext(
          "read timeout (" + std::to_string(policy.timeout_us) +
          " us) after " + std::to_string(attempt + 1) + " attempt(s)");
    }
    if (delay_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(delay_us));
    }
    delay_us = std::min(delay_us * policy.backoff_multiplier,
                        policy.backoff_max_us);
    ++attempt;
    RetryMetrics::Get().retries->Add();
  }
}

}  // namespace tbm
