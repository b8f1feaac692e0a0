#ifndef TBM_DERIVE_CACHE_H_
#define TBM_DERIVE_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "derive/value.h"

namespace tbm {

/// Node handle within a DerivationGraph (mirrors derive/graph.h).
using NodeId = int64_t;

/// Counters exposed by ExpansionCache. All values are cumulative since
/// construction (or the last Clear(), for the occupancy fields).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;         ///< Entries pushed out by the byte budget.
  uint64_t insertions = 0;
  uint64_t oversize_rejects = 0;  ///< Values too large to ever fit.
  uint64_t invalidations = 0;     ///< Entries dropped by Erase()/Clear().
  uint64_t bytes_cached = 0;      ///< Current charged occupancy (deduped).
  uint64_t entries = 0;           ///< Current entry count.
  uint64_t budget_bytes = 0;      ///< Configured ceiling.
  /// Sum of the live entries' declared (ExpandedBytes) sizes: what the
  /// cache would hold if every value owned a private copy of its bytes.
  uint64_t logical_bytes = 0;
  /// Actual bytes pinned: unique backing-buffer allocations (counted
  /// once however many entries share them) plus unshared value bytes.
  uint64_t resident_bytes = 0;
};

/// A byte-budgeted expansion cache for derivation results.
///
/// The paper's derivation objects store the *specification* of each
/// step and are expanded on demand (§4.2); under server load the
/// expansions themselves must be reusable yet bounded in memory. This
/// cache maps derivation nodes to their expanded values with:
///
///  - **byte budget**: the sum of cached value charges never exceeds
///    the configured budget (a value that cannot fit even in an empty
///    cache is simply not cached);
///  - **cost-aware LRU eviction**: to make room the cache examines a
///    small sample of its least-recently-used entries and evicts the
///    one that is cheapest to recompute per byte freed (recompute
///    seconds / bytes), so an expensive little render outlives a cheap
///    bulky memcpy of the same age.
///
/// Thread-safe: one mutex guards the LRU list, the index, the buffer
/// ledger and the totals. Lookups happen during the engine's
/// single-threaded planning; only parallel evaluation workers insert
/// concurrently. ValueRefs returned by Lookup remain valid after the
/// entry is evicted.
class ExpansionCache {
 public:
  /// How many LRU-tail entries the evictor weighs against each other.
  static constexpr int kEvictionSample = 4;

  explicit ExpansionCache(uint64_t budget_bytes);
  ~ExpansionCache();

  ExpansionCache(const ExpansionCache&) = delete;
  ExpansionCache& operator=(const ExpansionCache&) = delete;

  /// Returns the cached value for `id`, or nullptr (counted as hit or
  /// miss). A hit refreshes the entry's recency.
  ValueRef Lookup(NodeId id);

  /// Caches `value` (replacing any previous entry for `id`).
  /// `bytes` is the value's declared (logical) expanded size;
  /// `cost_seconds` is the wall time that was spent computing it, used
  /// by the cost-aware evictor. The budget is charged the *deduped*
  /// cost: backing buffers already pinned by another live entry are
  /// free, so timing-only views of cached sources charge O(1) bytes.
  void Insert(NodeId id, ValueRef value, uint64_t bytes, double cost_seconds);

  /// Drops the entry for `id`, if present.
  void Erase(NodeId id);

  /// Drops every entry.
  void Clear();

  CacheStats stats() const;
  uint64_t budget_bytes() const { return budget_; }

 private:
  struct Entry {
    NodeId id = 0;
    ValueRef value;
    uint64_t bytes = 0;    ///< Declared (logical) size.
    uint64_t charge = 0;   ///< What this entry paid against the budget.
    uint64_t private_bytes = 0;  ///< Declared bytes not backed by buffers.
    /// Backing buffers referenced by the value: (buffer id, full size).
    std::vector<std::pair<uint64_t, uint64_t>> buffers;
    double cost_seconds = 0.0;
  };
  /// Residency of one backing buffer.
  struct BufferUse {
    uint64_t size = 0;
    uint64_t refs = 0;  ///< Live entries referencing it.
  };

  /// Bytes `entry` would charge right now: private bytes plus buffers
  /// not yet pinned by any live entry. Caller holds `mu_`.
  uint64_t ChargeOfLocked(const Entry& entry) const;
  /// Removes one entry's accounting (ledger refs, charged bytes,
  /// totals) and the entry itself. Caller holds `mu_`.
  void RemoveLocked(std::list<Entry>::iterator it);

  const uint64_t budget_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::unordered_map<NodeId, std::list<Entry>::iterator> index_;
  /// Which backing buffers are pinned by live entries, deduplicated.
  std::unordered_map<uint64_t, BufferUse> ledger_;
  uint64_t bytes_ = 0;            ///< Σ charges of live entries.
  uint64_t ledger_resident_ = 0;  ///< Σ sizes of pinned buffers.
  uint64_t private_total_ = 0;    ///< Σ private bytes of live entries.
  uint64_t logical_total_ = 0;    ///< Σ declared bytes of live entries.
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t insertions_ = 0;
  uint64_t oversize_rejects_ = 0;
  uint64_t invalidations_ = 0;
};

}  // namespace tbm

#endif  // TBM_DERIVE_CACHE_H_
