#ifndef TBM_DERIVE_SCHEDULER_H_
#define TBM_DERIVE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "base/thread_pool.h"
#include "derive/cache.h"
#include "derive/graph.h"

namespace tbm {

/// Evaluation knobs, shared by every entry point that expands
/// derivations (DerivationEngine, DerivationGraph::Evaluate,
/// MediaDatabase::Materialize, tbmctl eval).
struct EvalOptions {
  /// Worker threads for DAG-parallel expansion. 1 evaluates inline on
  /// the calling thread (fully deterministic scheduling); 0 means "use
  /// the hardware" (ThreadPool::DefaultThreads()). Either way the first
  /// failing derivation stops the scheduling of further nodes
  /// (in-flight nodes still finish) and is the reported error.
  int threads = 1;

  /// Byte budget of the expansion cache. The cache never holds more
  /// than this many bytes of expanded media.
  uint64_t cache_budget_bytes = 256ull << 20;  // 256 MiB

  /// When true (default), the engine compiles each evaluation through
  /// the plan compiler (derive/plan.h): maximal chains of
  /// single-consumer content ops execute as one fused stage with no
  /// intermediate MediaValue, bit-identical to node-at-a-time
  /// evaluation. False forces one stage per node (`tbmctl eval
  /// --no-fuse`). Note that fusion-elided interiors are not inserted
  /// into the expansion cache — only stage outputs are cacheable.
  bool fuse = true;
};

/// Per-operator timing breakdown.
struct OpStats {
  uint64_t invocations = 0;
  double seconds = 0.0;  ///< Summed wall time inside the operator.
};

/// Counters for one engine: cache behaviour plus evaluation work.
/// Cumulative across Evaluate calls.
struct EvalStats {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t bytes_cached = 0;       ///< Current charged occupancy (deduped).
  uint64_t cache_budget_bytes = 0;
  /// Declared (ExpandedBytes) total of live cache entries — the cost
  /// if every value owned private copies of its bytes.
  uint64_t logical_bytes = 0;
  /// Actual bytes pinned by the cache: backing buffers counted once
  /// however many entries share them, plus unshared value bytes. For
  /// timing-only derivation workloads resident ≪ logical.
  uint64_t resident_bytes = 0;
  uint64_t nodes_evaluated = 0;    ///< Operator applications performed.
  uint64_t entries_invalidated = 0;
  uint64_t evaluations = 0;        ///< Top-level Evaluate calls.
  double wall_seconds = 0.0;       ///< Summed Evaluate wall time.
  /// Nodes executed inside fused plan stages (chains compiled by
  /// derive/plan.h). Interior nodes still count in nodes_evaluated.
  uint64_t fused_nodes = 0;
  /// Bytes of fusion-elided intermediates that were never materialized.
  uint64_t elided_bytes = 0;
  std::map<std::string, OpStats> per_op;

  /// Multi-line human-readable rendering (tbmctl `eval` prints this).
  std::string ToString() const;
};

/// Concurrent, cache-bounded evaluator of derivation graphs — the
/// system's hot path (§4.2: derived objects are "expanded on demand").
///
/// Evaluate(id) plans the needed subgraph (skipping nodes whose
/// expansion is cached), then executes it:
///
///  - with `threads == 1`, inline in topological order — bitwise
///    deterministic, no pool;
///  - with `threads > 1`, by topological scheduling over a thread
///    pool: every node whose inputs are resolved is submitted
///    immediately, so independent branches — e.g. Table 1's five
///    derivations of one source, or the per-language dubs of a movie —
///    expand concurrently. Operators are pure functions, so results
///    are identical to the single-threaded ones.
///
/// Completed expansions land in a byte-budgeted, cost-aware-LRU
/// ExpansionCache (derive/cache.h), which serves later Evaluate calls
/// on the same engine. Graph mutations are reconciled at the start of
/// each Evaluate: nodes dirtied by UpdateParams — and everything
/// downstream of them — are invalidated before planning.
///
/// Thread-safety: an engine may be shared; concurrent Evaluate calls
/// are serialized internally. The underlying graph must not be mutated
/// while an evaluation is in flight.
class DerivationEngine {
 public:
  /// Does not take ownership of `graph`, which must outlive the engine.
  explicit DerivationEngine(DerivationGraph* graph, EvalOptions options = {});
  ~DerivationEngine();

  DerivationEngine(const DerivationEngine&) = delete;
  DerivationEngine& operator=(const DerivationEngine&) = delete;

  /// Expands node `id`, reusing and populating the expansion cache.
  Result<ValueRef> Evaluate(NodeId id);

  /// Drops every cached expansion.
  void InvalidateAll();

  /// Drops the cached expansion of `id` and of every node that
  /// transitively depends on it.
  Status Invalidate(NodeId id);

  EvalStats stats() const;
  const EvalOptions& options() const { return options_; }

  /// The resolved worker count (options().threads, with 0 expanded to
  /// the hardware's).
  int threads() const { return threads_; }

 private:
  struct Plan;

  /// Applies mutations recorded by the graph since the last call.
  void SyncWithGraph();
  void InvalidateDependentsLocked(const std::vector<NodeId>& roots);
  Result<ValueRef> ExecuteInline(Plan* plan);
  Result<ValueRef> ExecuteParallel(Plan* plan);
  /// Applies one derivation, returning its value and recording per-op
  /// timing, cache insertion and node counts.
  Result<ValueRef> ApplyNode(NodeId id,
                             const std::vector<const MediaValue*>& args);
  /// Executes one compiled stage: singletons through ApplyNode, fused
  /// chains through the plan executor. Caches only the stage output.
  Result<ValueRef> ApplyStage(const Plan& plan, size_t stage_index,
                              const std::vector<const MediaValue*>& args);
  /// Interned "derive:<op>" span name for the tracer (stable storage;
  /// returns "" in TBM_OBS_DISABLED builds).
  const char* SpanNameForOp(const std::string& op);

  DerivationGraph* graph_;
  EvalOptions options_;
  int threads_;
  ExpansionCache cache_;
  std::unique_ptr<ThreadPool> pool_;  ///< Created on first parallel run.

  std::mutex eval_mu_;  ///< Serializes top-level Evaluate calls.
  uint64_t synced_seq_ = 0;

  /// Span id of the in-flight Evaluate; pool workers parent their node
  /// spans here (written under eval_mu_ before any task is submitted).
  uint64_t eval_span_id_ = 0;
  std::mutex span_names_mu_;
  std::map<std::string, const char*> span_names_;

  mutable std::mutex stats_mu_;
  uint64_t nodes_evaluated_ = 0;
  uint64_t evaluations_ = 0;
  double wall_seconds_ = 0.0;
  uint64_t fused_nodes_ = 0;
  uint64_t elided_bytes_ = 0;
  std::map<std::string, OpStats> per_op_;
};

}  // namespace tbm

#endif  // TBM_DERIVE_SCHEDULER_H_
