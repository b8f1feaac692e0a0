#include "blob/prefetcher.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tbm {

namespace {

struct PrefetchMetrics {
  obs::Counter* hits;
  obs::Counter* stalls;
  obs::Counter* bytes;
  obs::Counter* errors;
  obs::Histogram* stall_us;

  static const PrefetchMetrics& Get() {
    static const PrefetchMetrics metrics = [] {
      auto& registry = obs::Registry::Global();
      return PrefetchMetrics{registry.counter("blob.prefetch.hits"),
                             registry.counter("blob.prefetch.stalls"),
                             registry.counter("blob.prefetch.bytes"),
                             registry.counter("blob.prefetch.errors"),
                             registry.histogram("blob.prefetch.stall_us")};
    }();
    return metrics;
  }
};

}  // namespace

AsyncPrefetcher::AsyncPrefetcher(std::unique_ptr<ChunkReader> reader,
                                 const StreamReadOptions& options,
                                 std::vector<uint64_t> chunks)
    : reader_(std::move(reader)),
      pool_(options.pool),
      depth_(options.pool != nullptr && options.prefetch_depth > 0
                 ? static_cast<size_t>(options.prefetch_depth)
                 : 0),
      max_inflight_bytes_(std::max<uint64_t>(options.max_inflight_bytes, 1)),
      chunks_(std::move(chunks)) {
  if (depth_ > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ScheduleLocked();
  }
}

AsyncPrefetcher::~AsyncPrefetcher() {
  std::unique_lock<std::mutex> lock(mu_);
  // Stop scheduling new work and wait for tasks already on the pool;
  // their closures touch this object, so it cannot die under them.
  next_schedule_ = chunks_.size();
  cv_.wait(lock, [&] { return outstanding_tasks_ == 0; });
}

bool AsyncPrefetcher::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_consume_ >= chunks_.size();
}

PrefetchStats AsyncPrefetcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AsyncPrefetcher::ScheduleLocked() {
  if (depth_ == 0) return;
  while (next_schedule_ < chunks_.size() &&
         next_schedule_ < next_consume_ + depth_) {
    const size_t position = next_schedule_;
    const uint64_t length = reader_->ChunkRange(chunks_[position]).length;
    // Backpressure: always allow one chunk in flight so progress never
    // deadlocks on a chunk larger than the byte budget.
    if (inflight_bytes_ > 0 &&
        inflight_bytes_ + length > max_inflight_bytes_) {
      break;
    }
    inflight_bytes_ += length;
    ++next_schedule_;
    ++outstanding_tasks_;
    pool_->Submit([this, position] {
      obs::ScopedSpan span("blob.prefetch.fetch");
      Result<BufferSlice> result = reader_->ReadChunk(chunks_[position]);
      std::lock_guard<std::mutex> task_lock(mu_);
      ready_.emplace(position, std::move(result));
      --outstanding_tasks_;
      cv_.notify_all();
    });
  }
}

Result<BufferSlice> AsyncPrefetcher::Next() {
  const auto& metrics = PrefetchMetrics::Get();
  std::unique_lock<std::mutex> lock(mu_);
  if (next_consume_ >= chunks_.size()) {
    return Status::OutOfRange("prefetcher exhausted (" +
                              std::to_string(chunks_.size()) + " chunks)");
  }
  const size_t position = next_consume_;

  Result<BufferSlice> result = BufferSlice{};
  if (depth_ == 0) {
    // Synchronous mode: fetch on the caller's thread.
    lock.unlock();
    result = reader_->ReadChunk(chunks_[position]);
    lock.lock();
  } else {
    ScheduleLocked();
    auto it = ready_.find(position);
    if (it != ready_.end()) {
      ++stats_.hits;
      metrics.hits->Add();
    } else {
      ++stats_.stalls;
      metrics.stalls->Add();
      obs::ScopedSpan span("blob.prefetch.stall");
      int64_t start_ns = obs::NowTicksNs();
      cv_.wait(lock, [&] { return ready_.count(position) > 0; });
      uint64_t waited_us = static_cast<uint64_t>(
          std::max<int64_t>(0, obs::NowTicksNs() - start_ns) / 1000);
      stats_.stall_us += waited_us;
      metrics.stall_us->Record(waited_us);
      it = ready_.find(position);
    }
    result = std::move(it->second);
    ready_.erase(it);
    inflight_bytes_ -= reader_->ChunkRange(chunks_[position]).length;
  }

  ++next_consume_;
  ++stats_.chunks_delivered;
  if (result.ok()) {
    stats_.bytes_delivered += result->size();
    metrics.bytes->Add(result->size());
  } else {
    ++stats_.read_errors;
    metrics.errors->Add();
  }
  ScheduleLocked();
  return result;
}

}  // namespace tbm
