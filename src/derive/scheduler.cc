#include "derive/scheduler.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/macros.h"
#include "derive/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tbm {

namespace {

/// Process-wide engine metrics (EvalStats stays the per-engine view and
/// keeps working in TBM_OBS_DISABLED builds; these registry mirrors add
/// latency distributions and fleet-wide aggregation on top).
struct EngineMetrics {
  obs::Counter* evaluations;
  obs::Counter* nodes_evaluated;
  obs::Counter* fused_nodes;
  obs::Counter* elided_bytes;
  obs::Histogram* evaluate_us;
  obs::Histogram* node_us;
  obs::Histogram* queue_wait_us;

  static const EngineMetrics& Get() {
    static const EngineMetrics metrics = [] {
      auto& registry = obs::Registry::Global();
      return EngineMetrics{registry.counter("derive.evaluations"),
                           registry.counter("derive.nodes_evaluated"),
                           registry.counter("derive.fused_nodes"),
                           registry.counter("derive.elided_bytes"),
                           registry.histogram("derive.evaluate_us"),
                           registry.histogram("derive.node_us"),
                           registry.histogram("derive.queue_wait_us")};
    }();
    return metrics;
  }
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string HumanByteCount(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.1f GiB",
                  static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB",
                  static_cast<double>(bytes) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B", (unsigned long long)bytes);
  }
  return buf;
}

}  // namespace

std::string EvalStats::ToString() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "evaluations: %llu (%llu nodes evaluated, %.3f s wall)\n",
                (unsigned long long)evaluations,
                (unsigned long long)nodes_evaluated, wall_seconds);
  out += line;
  // A single evaluation starts from an empty cache, so it can have no
  // hits: the cache lines only say something once an engine is reused.
  if (evaluations > 1) {
    std::snprintf(line, sizeof(line),
                  "cache: %llu hits, %llu misses, %llu evictions, "
                  "%llu invalidations\n",
                  (unsigned long long)cache_hits,
                  (unsigned long long)cache_misses,
                  (unsigned long long)cache_evictions,
                  (unsigned long long)entries_invalidated);
    out += line;
    std::snprintf(line, sizeof(line), "cache occupancy: %s of %s budget\n",
                  HumanByteCount(bytes_cached).c_str(),
                  HumanByteCount(cache_budget_bytes).c_str());
    out += line;
    std::snprintf(line, sizeof(line),
                  "cache bytes: %s logical, %s resident (shared buffers "
                  "counted once)\n",
                  HumanByteCount(logical_bytes).c_str(),
                  HumanByteCount(resident_bytes).c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line), "fusion: %llu nodes fused, %s elided\n",
                (unsigned long long)fused_nodes,
                HumanByteCount(elided_bytes).c_str());
  out += line;
  if (!per_op.empty()) {
    out += "per-op wall time:\n";
    for (const auto& [name, op] : per_op) {
      std::snprintf(line, sizeof(line), "  %-22s %6llu calls  %9.3f s\n",
                    name.c_str(), (unsigned long long)op.invocations,
                    op.seconds);
      out += line;
    }
  }
  return out;
}

/// The subgraph one Evaluate call must execute: nodes whose expansions
/// are not already available, in topological (postorder) order, plus
/// the dependency bookkeeping the parallel executor consumes.
struct DerivationEngine::Plan {
  NodeId root = 0;
  /// Resolved values: leaves, cache hits, then computed stage outputs.
  /// Holding the ValueRefs here pins them for the duration of the run,
  /// so later stages can safely use raw pointers into them even if the
  /// cache evicts concurrently. Fusion-elided interiors never appear.
  std::unordered_map<NodeId, ValueRef> values;
  /// Derived nodes to execute, topologically ordered.
  std::vector<NodeId> order;
  /// `order` compiled into stages (derive/plan.h): chains of
  /// single-consumer content ops become one fused stage; with
  /// EvalOptions::fuse off, exactly one stage per node.
  CompiledPlan compiled;
  /// Unresolved-input counts per stage, and which stages each pending
  /// value releases (one entry per argument occurrence).
  std::vector<int> remaining;
  std::unordered_map<NodeId, std::vector<size_t>> dependents;
};

DerivationEngine::DerivationEngine(DerivationGraph* graph, EvalOptions options)
    : graph_(graph),
      options_(options),
      threads_(options.threads == 0 ? ThreadPool::DefaultThreads()
                                    : std::max(options.threads, 1)),
      cache_(options.cache_budget_bytes) {}

DerivationEngine::~DerivationEngine() = default;

void DerivationEngine::SyncWithGraph() {
  uint64_t seq = graph_->mutation_seq();
  if (seq == synced_seq_) return;
  std::vector<NodeId> dirty = graph_->DirtyNodesSince(synced_seq_);
  if (!dirty.empty() && dirty.front() == DerivationGraph::kDirtyLogTrimmed) {
    cache_.Clear();
  } else if (!dirty.empty()) {
    InvalidateDependentsLocked(dirty);
  }
  synced_seq_ = seq;
}

void DerivationEngine::InvalidateDependentsLocked(
    const std::vector<NodeId>& roots) {
  // Transitive closure over reverse edges: one forward scan builds the
  // reverse adjacency (node ids are dense), then a BFS from the roots.
  const auto& nodes = graph_->nodes_;
  std::vector<std::vector<NodeId>> reverse(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (NodeId input : nodes[i].inputs) {
      reverse[static_cast<size_t>(input)].push_back(
          static_cast<NodeId>(i));
    }
  }
  std::vector<bool> seen(nodes.size(), false);
  std::vector<NodeId> frontier;
  for (NodeId id : roots) {
    if (id < 0 || static_cast<size_t>(id) >= nodes.size()) continue;
    if (!seen[static_cast<size_t>(id)]) {
      seen[static_cast<size_t>(id)] = true;
      frontier.push_back(id);
    }
  }
  while (!frontier.empty()) {
    NodeId id = frontier.back();
    frontier.pop_back();
    cache_.Erase(id);
    for (NodeId dep : reverse[static_cast<size_t>(id)]) {
      if (!seen[static_cast<size_t>(dep)]) {
        seen[static_cast<size_t>(dep)] = true;
        frontier.push_back(dep);
      }
    }
  }
}

void DerivationEngine::InvalidateAll() {
  std::lock_guard<std::mutex> lock(eval_mu_);
  cache_.Clear();
  synced_seq_ = graph_->mutation_seq();
}

Status DerivationEngine::Invalidate(NodeId id) {
  std::lock_guard<std::mutex> lock(eval_mu_);
  TBM_RETURN_IF_ERROR(graph_->CheckId(id));
  InvalidateDependentsLocked({id});
  return Status::OK();
}

Result<ValueRef> DerivationEngine::ApplyNode(
    NodeId id, const std::vector<const MediaValue*>& args) {
  const DerivationGraph::Node& node =
      graph_->nodes_[static_cast<size_t>(id)];
  // Per-node expansion span. Worker threads have no enclosing span of
  // their own, so they link to the Evaluate span explicitly.
  uint64_t parent = obs::Tracer::CurrentSpanId();
  if (parent == 0) parent = eval_span_id_;
  obs::ScopedSpan span(SpanNameForOp(node.op), parent);
  auto start = std::chrono::steady_clock::now();
  Result<MediaValue> result =
      graph_->registry_->Apply(node.op, args, node.params);
  double seconds = SecondsSince(start);
  EngineMetrics::Get().nodes_evaluated->Add();
  EngineMetrics::Get().node_us->Record(
      static_cast<uint64_t>(seconds * 1e6));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    OpStats& op = per_op_[node.op];
    ++op.invocations;
    op.seconds += seconds;
    ++nodes_evaluated_;
  }
  if (!result.ok()) {
    std::string label = node.name.empty() ? node.op : node.name;
    return result.status().WithContext("evaluating '" + label + "'");
  }
  ValueRef ref = std::make_shared<const MediaValue>(std::move(*result));
  cache_.Insert(id, ref, ExpandedBytes(*ref), seconds);
  return ref;
}

Result<ValueRef> DerivationEngine::ApplyStage(
    const Plan& plan, size_t stage_index,
    const std::vector<const MediaValue*>& args) {
  const PlanStage& stage = plan.compiled.stages[stage_index];
  if (!stage.fused()) {
    return ApplyNode(stage.nodes.front().id, args);
  }
  uint64_t parent = obs::Tracer::CurrentSpanId();
  if (parent == 0) parent = eval_span_id_;
  obs::ScopedSpan span("derive.fused_stage", parent);
  auto start = std::chrono::steady_clock::now();
  FusedStageStats fused;
  Result<MediaValue> result =
      ExecuteFusedStage(*graph_->registry_, stage, args, &fused);
  double seconds = SecondsSince(start);
  EngineMetrics::Get().nodes_evaluated->Add(fused.nodes_run);
  EngineMetrics::Get().fused_nodes->Add(fused.nodes_run);
  EngineMetrics::Get().elided_bytes->Add(fused.elided_bytes);
  EngineMetrics::Get().node_us->Record(
      static_cast<uint64_t>(seconds * 1e6));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (size_t k = 0; k < fused.nodes_run; ++k) {
      OpStats& op = per_op_[stage.nodes[k].op_name];
      ++op.invocations;
      op.seconds += fused.node_seconds[k];
    }
    nodes_evaluated_ += fused.nodes_run;
    fused_nodes_ += fused.nodes_run;
    elided_bytes_ += fused.elided_bytes;
  }
  if (!result.ok()) return result.status();
  ValueRef ref = std::make_shared<const MediaValue>(std::move(*result));
  // Only the stage output is cacheable; its recompute cost is the whole
  // chain's, which is what the cost-aware LRU should weigh.
  cache_.Insert(stage.output(), ref, ExpandedBytes(*ref), seconds);
  return ref;
}

Result<ValueRef> DerivationEngine::ExecuteInline(Plan* plan) {
  for (size_t s = 0; s < plan->compiled.stages.size(); ++s) {
    const PlanStage& stage = plan->compiled.stages[s];
    std::vector<const MediaValue*> args;
    args.reserve(stage.inputs().size());
    for (NodeId input : stage.inputs()) {
      args.push_back(plan->values.at(input).get());
    }
    TBM_ASSIGN_OR_RETURN(ValueRef value, ApplyStage(*plan, s, args));
    plan->values.emplace(stage.output(), std::move(value));
  }
  return plan->values.at(plan->root);
}

Result<ValueRef> DerivationEngine::ExecuteParallel(Plan* plan) {
  struct Run {
    std::mutex mu;
    std::condition_variable cv;
    int inflight = 0;
    Status error;  // First failure in completion order.
  };
  Run run;

  // exec(s) evaluates one stage and, under the run lock, releases any
  // dependent stages whose inputs are now all resolved. After the first
  // failure nothing further is released; in-flight stages still finish.
  // Newly ready stages are submitted outside the lock. The driver below
  // joins on inflight == 0, so `run`, `plan` and `exec` outlive every
  // task that references them.
  std::function<void(size_t)> exec;
  auto submit = [this, &exec](size_t s) {
    int64_t submitted = obs::NowTicksNs();
    pool_->Submit([&exec, s, submitted] {
      EngineMetrics::Get().queue_wait_us->Record(static_cast<uint64_t>(
          std::max<int64_t>(0, obs::NowTicksNs() - submitted) / 1000));
      exec(s);
    });
  };
  exec = [&](size_t s) {
    const PlanStage& stage = plan->compiled.stages[s];
    std::vector<const MediaValue*> args;
    args.reserve(stage.inputs().size());
    {
      // Values are appended concurrently; the pointed-to MediaValues
      // themselves are heap-allocated and pinned by the map's refs, so
      // raw pointers stay valid across rehashes.
      std::lock_guard<std::mutex> lock(run.mu);
      for (NodeId input : stage.inputs()) {
        args.push_back(plan->values.at(input).get());
      }
    }
    Result<ValueRef> result = ApplyStage(*plan, s, args);
    std::vector<size_t> ready;
    {
      std::lock_guard<std::mutex> lock(run.mu);
      --run.inflight;
      if (!result.ok()) {
        if (run.error.ok()) run.error = result.status();
      } else if (run.error.ok()) {
        plan->values.emplace(stage.output(), std::move(*result));
        for (size_t dep : plan->dependents[stage.output()]) {
          if (--plan->remaining[dep] == 0) ready.push_back(dep);
        }
      }
      run.inflight += static_cast<int>(ready.size());
      if (run.inflight == 0) run.cv.notify_all();
    }
    for (size_t next : ready) submit(next);
  };

  std::vector<size_t> seeds;
  for (size_t s = 0; s < plan->compiled.stages.size(); ++s) {
    if (plan->remaining[s] == 0) seeds.push_back(s);
  }
  {
    std::lock_guard<std::mutex> lock(run.mu);
    run.inflight = static_cast<int>(seeds.size());
  }
  for (size_t s : seeds) submit(s);
  {
    std::unique_lock<std::mutex> lock(run.mu);
    run.cv.wait(lock, [&run] { return run.inflight == 0; });
  }

  if (!run.error.ok()) return run.error;
  auto it = plan->values.find(plan->root);
  if (it == plan->values.end()) {
    return Status::Internal("evaluation finished without a root value");
  }
  return it->second;
}

const char* DerivationEngine::SpanNameForOp(const std::string& op) {
#ifdef TBM_OBS_DISABLED
  (void)op;
  return "";
#else
  std::lock_guard<std::mutex> lock(span_names_mu_);
  auto it = span_names_.find(op);
  if (it == span_names_.end()) {
    it = span_names_
             .emplace(op, obs::Tracer::Global().Intern("derive:" + op))
             .first;
  }
  return it->second;
#endif
}

Result<ValueRef> DerivationEngine::Evaluate(NodeId id) {
  std::lock_guard<std::mutex> lock(eval_mu_);
  obs::ScopedSpan eval_span("derive.evaluate");
  // Workers started by this call parent their node spans here (written
  // before any task is submitted; the pool's queue synchronizes).
  eval_span_id_ = eval_span.span_id();
  obs::ScopedTimerUs eval_timer(EngineMetrics::Get().evaluate_us);
  EngineMetrics::Get().evaluations->Add();
  TBM_RETURN_IF_ERROR(graph_->CheckId(id));
  auto start = std::chrono::steady_clock::now();
  SyncWithGraph();

  // Plan: DFS postorder over the needed subgraph. Leaves and cache hits
  // resolve immediately (a hit is pinned into the plan, so eviction
  // during the run cannot unresolve it); the rest is emitted in
  // topological order.
  Plan plan;
  {
    obs::ScopedSpan plan_span("derive.plan");
    plan.root = id;
    std::vector<std::pair<NodeId, bool>> stack{{id, false}};
    std::unordered_set<NodeId> visited;
    while (!stack.empty()) {
      auto [current, expanded] = stack.back();
      stack.pop_back();
      if (expanded) {
        plan.order.push_back(current);
        continue;
      }
      if (!visited.insert(current).second) continue;
      const DerivationGraph::Node& node =
          graph_->nodes_[static_cast<size_t>(current)];
      if (node.value != nullptr) {
        plan.values.emplace(current, node.value);
        continue;
      }
      if (ValueRef cached = cache_.Lookup(current)) {
        plan.values.emplace(current, std::move(cached));
        continue;
      }
      stack.emplace_back(current, true);
      for (NodeId input : node.inputs) {
        if (visited.count(input) == 0) stack.emplace_back(input, false);
      }
    }
    // Compile the topo order into stages: chains of single-consumer
    // content ops fuse into one stage (derive/plan.h); everything else
    // stays node-at-a-time. Consumer counts are graph-wide, so a value
    // some *other* evaluation could still want is never elided.
    std::vector<PlanNodeSpec> specs;
    specs.reserve(plan.order.size());
    for (NodeId nid : plan.order) {
      const DerivationGraph::Node& node =
          graph_->nodes_[static_cast<size_t>(nid)];
      PlanNodeSpec spec;
      spec.id = nid;
      Result<const DerivationOp*> op = graph_->registry_->Find(node.op);
      spec.op = op.ok() ? *op : nullptr;
      spec.params = &node.params;
      spec.inputs = node.inputs;
      spec.op_name = node.op;
      spec.label = node.name.empty() ? node.op : node.name;
      specs.push_back(std::move(spec));
    }
    std::unordered_map<NodeId, int> consumers;
    for (const DerivationGraph::Node& node : graph_->nodes_) {
      for (NodeId input : node.inputs) ++consumers[input];
    }
    plan.compiled = CompilePlan(std::move(specs), consumers, options_.fuse);
    plan.remaining.assign(plan.compiled.stages.size(), 0);
    for (size_t s = 0; s < plan.compiled.stages.size(); ++s) {
      for (NodeId input : plan.compiled.stages[s].inputs()) {
        if (plan.values.count(input) == 0) {
          ++plan.remaining[s];
          plan.dependents[input].push_back(s);
        }
      }
    }
  }

  Result<ValueRef> result = [&]() -> Result<ValueRef> {
    if (plan.compiled.stages.empty()) return plan.values.at(plan.root);
    if (threads_ <= 1 || plan.compiled.stages.size() == 1) {
      return ExecuteInline(&plan);
    }
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
    return ExecuteParallel(&plan);
  }();

  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++evaluations_;
    wall_seconds_ += SecondsSince(start);
  }
  return result;
}

EvalStats DerivationEngine::stats() const {
  CacheStats cache = cache_.stats();
  EvalStats out;
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_evictions = cache.evictions;
  out.bytes_cached = cache.bytes_cached;
  out.cache_budget_bytes = cache.budget_bytes;
  out.logical_bytes = cache.logical_bytes;
  out.resident_bytes = cache.resident_bytes;
  out.entries_invalidated = cache.invalidations;
  std::lock_guard<std::mutex> lock(stats_mu_);
  out.nodes_evaluated = nodes_evaluated_;
  out.evaluations = evaluations_;
  out.wall_seconds = wall_seconds_;
  out.fused_nodes = fused_nodes_;
  out.elided_bytes = elided_bytes_;
  out.per_op = per_op_;
  return out;
}

}  // namespace tbm
