#ifndef TBM_DERIVE_PLAN_H_
#define TBM_DERIVE_PLAN_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "derive/graph.h"
#include "derive/operators.h"

namespace tbm {

/// One derived node, as the plan compiler sees it: the resolved
/// operator (null when the graph names an unknown derivation — the
/// error then surfaces at execution, exactly as before), the node's
/// parameters and inputs, and a label for error context. `params`
/// points into the graph, which must not be mutated while a compiled
/// plan is in use (the same contract evaluation already imposes).
struct PlanNodeSpec {
  NodeId id = 0;
  const DerivationOp* op = nullptr;
  const AttrMap* params = nullptr;
  std::vector<NodeId> inputs;
  std::string op_name;  ///< For per-op stats and unknown-op errors.
  std::string label;    ///< Node name, or the op name when unnamed.
};

/// A unit of execution: either a single node (executed exactly as the
/// node-at-a-time path always has) or a fused chain of content ops.
///
/// In a fused stage, `nodes.front()` is the head — the only node whose
/// inputs are external — and every later node is unary with its sole
/// input being the previous node's output. Only the tail's value
/// escapes the stage; interior values are fusion-elided and are never
/// cached.
struct PlanStage {
  std::vector<PlanNodeSpec> nodes;

  bool fused() const { return nodes.size() > 1; }
  NodeId output() const { return nodes.back().id; }
  /// External inputs (the head's), one entry per argument occurrence.
  const std::vector<NodeId>& inputs() const { return nodes.front().inputs; }
};

/// The executable form of one Evaluate call's subgraph.
struct CompiledPlan {
  /// Stages in topological order (derived from the node topo order, so
  /// a stage's external inputs are always produced by earlier stages or
  /// resolved before execution starts).
  std::vector<PlanStage> stages;

  /// Nodes placed inside fused stages (diagnostic; 0 without fusion).
  uint64_t fused_nodes = 0;

  /// Human-readable stage listing, for tests and debugging.
  std::string ToString() const;
};

/// Compiles a topologically ordered node list into stages.
///
/// A node B is appended to the stage currently tailed by its input A
/// iff fusion is on, B is unary with a whole-value stage form
/// (op->stage_fn), and A has exactly one consumer graph-wide
/// (`consumer_count`) — so eliding A's value can never starve another
/// reader, in this evaluation or a later one. Any node can head a
/// chain (multi-input ops only as the head); unknown-op nodes compile
/// to non-extendable singleton stages. `fuse = false` compiles every
/// node into its own stage, reproducing node-at-a-time evaluation
/// exactly (the `tbmctl eval --no-fuse` escape hatch).
CompiledPlan CompilePlan(std::vector<PlanNodeSpec> specs,
                         const std::unordered_map<NodeId, int>& consumer_count,
                         bool fuse = true);

/// Per-stage execution accounting, consumed by the engine's stats.
struct FusedStageStats {
  /// Wall seconds attributed to each stage node (composed-run time is
  /// divided equally among the run's nodes).
  std::vector<double> node_seconds;
  /// Bytes of intermediate values never materialized: for every
  /// fusion-elided interior of a composed element-kernel run, its
  /// would-have-been payload size.
  uint64_t elided_bytes = 0;
  /// Stage nodes actually attempted (== nodes.size() on success; fewer
  /// when a node fails partway).
  size_t nodes_run = 0;
};

/// Executes a fused stage against its resolved external inputs.
///
/// Maximal runs of chainable element kernels (equal element counts,
/// each kernel consuming exactly what the previous produced) execute
/// as one tiled pass with no intermediate MediaValue — in place when
/// every kernel preserves the element stride and the stage exclusively
/// owns the payload. Nodes without a usable kernel fall back to their
/// whole-value form, which also reproduces the node-at-a-time error
/// behavior. Output is bit-identical to evaluating the chain
/// node-at-a-time.
Result<MediaValue> ExecuteFusedStage(const DerivationRegistry& registry,
                                     const PlanStage& stage,
                                     const std::vector<const MediaValue*>& args,
                                     FusedStageStats* stats);

}  // namespace tbm

#endif  // TBM_DERIVE_PLAN_H_
