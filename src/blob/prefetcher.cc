#include "blob/prefetcher.h"

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
                                 ThreadPool* pool, PrefetchOptions options,
                                 uint64_t first_chunk)
    : reader_(std::move(reader)),
      pool_(pool),
      options_(options),
      next_consume_(first_chunk),
      next_schedule_(first_chunk) {
  if (options_.max_inflight_bytes == 0) options_.max_inflight_bytes = 1;
  if (pool_ != nullptr && options_.depth > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ScheduleLocked();
  }
}

AsyncPrefetcher::~AsyncPrefetcher() {
  std::unique_lock<std::mutex> lock(mu_);
  // Stop scheduling new work and wait for tasks already on the pool;
  // their closures touch this object, so it cannot die under them.
  next_schedule_ = reader_->chunk_count();
  cv_.wait(lock, [&] { return outstanding_tasks_ == 0; });
}

bool AsyncPrefetcher::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_consume_ >= reader_->chunk_count();
}

uint64_t AsyncPrefetcher::next_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_consume_;
}

PrefetchStats AsyncPrefetcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AsyncPrefetcher::ScheduleLocked() {
  if (pool_ == nullptr || options_.depth <= 0) return;
  const uint64_t count = reader_->chunk_count();
  while (next_schedule_ < count &&
         next_schedule_ <
             next_consume_ + static_cast<uint64_t>(options_.depth)) {
    const uint64_t index = next_schedule_;
    const uint64_t length = reader_->ChunkRange(index).length;
    // Backpressure: always allow one chunk in flight so progress never
    // deadlocks on a chunk larger than the byte budget.
    if (inflight_bytes_ > 0 &&
        inflight_bytes_ + length > options_.max_inflight_bytes) {
      break;
    }
    inflight_bytes_ += length;
    ++next_schedule_;
    ++outstanding_tasks_;
    pool_->Submit([this, index] {
      obs::ScopedSpan span("blob.prefetch.fetch");
      Result<BufferSlice> result = reader_->ReadChunk(index);
      std::lock_guard<std::mutex> task_lock(mu_);
      ready_.emplace(index, std::move(result));
      --outstanding_tasks_;
      cv_.notify_all();
    });
  }
}

Result<BufferSlice> AsyncPrefetcher::Next() {
  const auto& metrics = PrefetchMetrics::Get();
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t count = reader_->chunk_count();
  if (next_consume_ >= count) {
    return Status::OutOfRange("prefetcher exhausted (" +
                              std::to_string(count) + " chunks)");
  }
  const uint64_t index = next_consume_;

  Result<BufferSlice> result = BufferSlice{};
  if (pool_ == nullptr || options_.depth <= 0) {
    // Synchronous mode: fetch on the caller's thread.
    lock.unlock();
    result = reader_->ReadChunk(index);
    lock.lock();
  } else {
    ScheduleLocked();
    auto it = ready_.find(index);
    if (it != ready_.end()) {
      ++stats_.hits;
      metrics.hits->Add();
    } else {
      ++stats_.stalls;
      metrics.stalls->Add();
      obs::ScopedSpan span("blob.prefetch.stall");
      int64_t start_ns = obs::NowTicksNs();
      cv_.wait(lock, [&] { return ready_.count(index) > 0; });
      uint64_t waited_us = static_cast<uint64_t>(
          std::max<int64_t>(0, obs::NowTicksNs() - start_ns) / 1000);
      stats_.stall_us += waited_us;
      metrics.stall_us->Record(waited_us);
      it = ready_.find(index);
    }
    result = std::move(it->second);
    ready_.erase(it);
    inflight_bytes_ -= reader_->ChunkRange(index).length;
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
