#include "derive/cache.h"

#include <algorithm>
#include <iterator>

#include "obs/metrics.h"

namespace tbm {

namespace {

/// Process-wide cache metrics, aggregated across every ExpansionCache
/// (per-engine breakdowns stay available via ExpansionCache::stats()).
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* insertions;
  obs::Counter* invalidations;
  obs::Gauge* bytes;
  obs::Gauge* logical;
  obs::Gauge* resident;

  static const CacheMetrics& Get() {
    static const CacheMetrics metrics = [] {
      auto& registry = obs::Registry::Global();
      return CacheMetrics{registry.counter("derive.cache.hits"),
                          registry.counter("derive.cache.misses"),
                          registry.counter("derive.cache.evictions"),
                          registry.counter("derive.cache.insertions"),
                          registry.counter("derive.cache.invalidations"),
                          registry.gauge("derive.cache.bytes"),
                          registry.gauge("derive.cache.logical_bytes"),
                          registry.gauge("derive.cache.resident_bytes")};
    }();
    return metrics;
  }
};

}  // namespace

ExpansionCache::ExpansionCache(uint64_t budget_bytes) : budget_(budget_bytes) {}

ExpansionCache::~ExpansionCache() {
  // Release this cache's share of the global occupancy gauges
  // (engines — and their caches — are routinely short-lived, e.g. one
  // per MediaDatabase::Materialize call).
  CacheMetrics::Get().bytes->Add(-static_cast<int64_t>(bytes_));
  CacheMetrics::Get().logical->Add(-static_cast<int64_t>(logical_total_));
  CacheMetrics::Get().resident->Add(
      -static_cast<int64_t>(ledger_resident_ + private_total_));
}

ValueRef ExpansionCache::Lookup(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(id);
  if (it == index_.end()) {
    ++misses_;
    CacheMetrics::Get().misses->Add();
    return nullptr;
  }
  ++hits_;
  CacheMetrics::Get().hits->Add();
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

uint64_t ExpansionCache::ChargeOfLocked(const Entry& entry) const {
  uint64_t charge = entry.private_bytes;
  for (const auto& [buffer_id, size] : entry.buffers) {
    if (ledger_.find(buffer_id) == ledger_.end()) charge += size;
  }
  return charge;
}

void ExpansionCache::RemoveLocked(std::list<Entry>::iterator it) {
  const Entry& entry = *it;
  // Subtract exactly what the entry paid: never more, so the charged
  // byte count cannot underflow even when a shared buffer's original
  // payer was evicted before its sharers. (In that case the freed
  // bytes are under-reported until the last sharer goes — a bounded,
  // conservative error in the safe direction for the budget.)
  bytes_ -= entry.charge;
  CacheMetrics::Get().bytes->Add(-static_cast<int64_t>(entry.charge));
  uint64_t resident_before = ledger_resident_ + private_total_;
  for (const auto& [buffer_id, size] : entry.buffers) {
    auto use = ledger_.find(buffer_id);
    if (use == ledger_.end()) continue;
    if (--use->second.refs == 0) {
      ledger_resident_ -= use->second.size;
      ledger_.erase(use);
    }
  }
  private_total_ -= entry.private_bytes;
  logical_total_ -= entry.bytes;
  CacheMetrics::Get().logical->Add(-static_cast<int64_t>(entry.bytes));
  CacheMetrics::Get().resident->Add(
      static_cast<int64_t>(ledger_resident_ + private_total_) -
      static_cast<int64_t>(resident_before));
  index_.erase(entry.id);
  lru_.erase(it);
}

void ExpansionCache::Insert(NodeId id, ValueRef value, uint64_t bytes,
                            double cost_seconds) {
  // What would this value actually add to memory? Buffers already
  // pinned by a live entry (typically the source a timing-only
  // derivation sliced) are free; only unpinned buffers plus the
  // value's non-buffer ("private") bytes are charged.
  Entry entry;
  entry.id = id;
  entry.bytes = bytes;
  entry.cost_seconds = cost_seconds;
  BufferAudit audit = AuditBuffers(*value);
  entry.private_bytes =
      bytes > audit.sliced_bytes ? bytes - audit.sliced_bytes : 0;
  entry.buffers.assign(audit.buffers.begin(), audit.buffers.end());
  entry.value = std::move(value);

  std::lock_guard<std::mutex> lock(mu_);
  auto existing = index_.find(id);
  if (existing != index_.end()) RemoveLocked(existing->second);

  uint64_t charge = ChargeOfLocked(entry);
  if (charge > budget_) {
    ++oversize_rejects_;
    return;  // Caching it would break the budget invariant.
  }
  while (!lru_.empty() && bytes_ + charge > budget_) {
    // Weigh the few least-recently-used entries and evict the one whose
    // recomputation is cheapest per byte freed.
    auto victim = std::prev(lru_.end());
    double victim_density =
        victim->cost_seconds /
        static_cast<double>(std::max<uint64_t>(victim->charge, 1));
    auto candidate = victim;
    for (int i = 1; i < kEvictionSample && candidate != lru_.begin(); ++i) {
      --candidate;
      double density = candidate->cost_seconds /
                       static_cast<double>(
                           std::max<uint64_t>(candidate->charge, 1));
      if (density < victim_density) {
        victim = candidate;
        victim_density = density;
      }
    }
    RemoveLocked(victim);
    ++evictions_;
    CacheMetrics::Get().evictions->Add();
    // An eviction can unpin a buffer this value shares, in which case
    // the incoming entry now has to pay for it — recompute.
    charge = ChargeOfLocked(entry);
  }
  if (bytes_ + charge > budget_) {
    // Evicting everything still doesn't make room (possible only when
    // evictions unpinned buffers this value must now pay for).
    ++oversize_rejects_;
    return;
  }

  entry.charge = charge;
  uint64_t resident_before = ledger_resident_ + private_total_;
  for (const auto& [buffer_id, size] : entry.buffers) {
    auto [use, inserted] = ledger_.try_emplace(buffer_id, BufferUse{size, 0});
    if (inserted) ledger_resident_ += size;
    ++use->second.refs;
  }
  private_total_ += entry.private_bytes;
  logical_total_ += entry.bytes;
  CacheMetrics::Get().logical->Add(static_cast<int64_t>(entry.bytes));
  CacheMetrics::Get().resident->Add(
      static_cast<int64_t>(ledger_resident_ + private_total_) -
      static_cast<int64_t>(resident_before));
  lru_.push_front(std::move(entry));
  index_.emplace(id, lru_.begin());
  bytes_ += charge;
  ++insertions_;
  CacheMetrics::Get().insertions->Add();
  CacheMetrics::Get().bytes->Add(static_cast<int64_t>(charge));
}

void ExpansionCache::Erase(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(id);
  if (it == index_.end()) return;
  RemoveLocked(it->second);
  ++invalidations_;
  CacheMetrics::Get().invalidations->Add();
}

void ExpansionCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  invalidations_ += lru_.size();
  CacheMetrics::Get().invalidations->Add(lru_.size());
  while (!lru_.empty()) RemoveLocked(lru_.begin());
}

CacheStats ExpansionCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.insertions = insertions_;
  stats.oversize_rejects = oversize_rejects_;
  stats.invalidations = invalidations_;
  stats.bytes_cached = bytes_;
  stats.entries = lru_.size();
  stats.budget_bytes = budget_;
  stats.logical_bytes = logical_total_;
  stats.resident_bytes = ledger_resident_ + private_total_;
  return stats;
}

}  // namespace tbm
