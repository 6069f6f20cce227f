// XPath evaluation on top of the staircase join.
//
// A location path s1/s2/.../sn is evaluated as a series of axis steps; the
// node sequence output by step si is the context sequence of step si+1
// (paper Section 2.1). Staircase axes run through the staircase join (with
// optional name-test pushdown onto tag fragments, Section 4.4 Experiment 3
// + Section 6 fragmentation); the remaining axes run through the
// set-at-a-time axis cursor kernels (core/axis_step.h) over the same
// DocAccessor backends, with the step's node test folded into the scan --
// so on the paged backend *every* step of a query charges its column
// reads to the buffer pool -- including positional predicates, which
// run as a set-at-a-time rank join within per-context groups. Operator
// choice (pushdown vs staircase vs axis cursor) is estimate-driven via
// xpath/cost_model.h unless a hint pins it. A fully naive engine is
// provided as the tree-unaware comparator and as an independent
// correctness oracle.

#ifndef STAIRJOIN_XPATH_EVALUATOR_H_
#define STAIRJOIN_XPATH_EVALUATOR_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/snapshot.h"
#include "core/staircase_join.h"
#include "core/twig_join.h"
#include "encoding/doc_table.h"
#include "storage/buffer_pool.h"
#include "util/result.h"
#include "xpath/ast.h"
#include "xpath/cost_model.h"
#include "xpath/plan.h"

namespace sj::xpath {

/// Which join engine evaluates the staircase axes.
enum class EngineMode : uint8_t {
  kStaircase,  ///< staircase join (the paper's operator)
  kNaive,      ///< per-context evaluation + duplicate elimination
};

/// Which storage backend the staircase joins read the doc columns from.
enum class StorageBackend : uint8_t {
  kMemory,      ///< in-memory DocTable BATs
  kPaged,       ///< paged columns behind a BufferPool (IO-conscious)
  kCompressed,  ///< block-compressed (FOR/delta) columns behind a BufferPool
};

/// Whether name tests are pushed through the staircase join.
enum class PushdownMode : uint8_t {
  kAuto,    ///< cost model decides (selective tags only)
  kAlways,  ///< always evaluate over the tag fragment
  kNever,   ///< join over the document, name test afterwards
};

/// Whether runs of consecutive name-test descendant/child steps collapse
/// into the holistic twig join (core/twig_join.h).
enum class TwigMode : uint8_t {
  kAuto,   ///< collapse every eligible run of >= 2 levels
  kNever,  ///< strict step-at-a-time evaluation
};

/// Evaluator configuration: the semantic and execution knobs of one
/// session. Which images, overlay and pool serve a query is the bound
/// DatabaseSnapshot's and the Evaluator's business, not an option.
struct EvalOptions {
  EngineMode engine = EngineMode::kStaircase;
  StaircaseOptions staircase;
  PushdownMode pushdown = PushdownMode::kAuto;
  /// Whether eligible step runs (consecutive predicate-free name-test
  /// child/descendant(-or-self) steps) are evaluated as one holistic
  /// twig join instead of step-at-a-time. Requires the active backend's
  /// fragment index; ineligible runs and missing indexes silently fall
  /// back to step-at-a-time. EXPLAIN shows the collapse.
  TwigMode twig = TwigMode::kAuto;
  /// kAuto pushes a name test down iff the tag's node count is below this
  /// fraction of the document size ("selective name tests only"). Only
  /// consulted when `cost_model` is kOff -- under kAuto the estimator's
  /// page-cost comparison replaces the static threshold.
  double pushdown_selectivity = 0.125;
  /// Estimate-driven operator choice (xpath/cost_model.h). kAuto lets
  /// the CardinalityEstimator pick pushdown-vs-staircase by comparing
  /// page costs; kOff restores the static pushdown_selectivity
  /// threshold. Either way EXPLAIN prints est=N act=M per step.
  CostModelMode cost_model = CostModelMode::kAuto;
  /// >1 runs the partitioned parallel staircase join with this many workers.
  unsigned num_threads = 1;
  /// Storage backend for the axis-step joins. With kPaged or
  /// kCompressed, every step -- staircase joins, the non-staircase axis
  /// cursors, positional rank joins AND the node-test filters -- reads
  /// post/kind/level/parent/tag through the evaluator's pool.
  StorageBackend backend = StorageBackend::kMemory;
};

/// Per-step diagnostics (an EXPLAIN of the executed plan).
struct StepTrace {
  std::string description;
  JoinStats stats;
  double millis = 0.0;
  /// The operator the planner chose (sj::QueryResult::PlanSummary()).
  StepOperator op = StepOperator::kStaircase;
  /// The cost model's output-cardinality estimate; EXPLAIN prints it as
  /// "est=N" next to the actual row count ("act=M").
  uint64_t estimated_rows = 0;
  /// Buffer-pool faults charged while this step ran (0 on the memory
  /// backend). Measured as the pool's fault-counter delta around the
  /// step, so nested predicate evaluation and concurrent sessions on a
  /// shared pool can inflate a step's number -- exact per-step
  /// attribution needs a session-private pool.
  uint64_t pool_faults = 0;
};

/// Renders a step trace as a readable multi-line EXPLAIN (the formatting
/// behind sj::QueryResult::Explain).
std::string ExplainTrace(const std::vector<StepTrace>& trace);

/// \brief Evaluates compiled location paths over one database snapshot.
class Evaluator {
 public:
  /// Binds the evaluator to `snap` (borrowed; must outlive the
  /// evaluator): its images, its delta overlay when edited, and its
  /// planner statistics. `pool` is where the pool-backed backends charge
  /// their reads (the shared or a session-private pool); null on the
  /// memory backend.
  Evaluator(const DatabaseSnapshot& snap, EvalOptions options,
            storage::BufferPool* pool);

  /// Analyzes `expr` into an immutable CompiledPlan: twig-run collapse,
  /// positional detection, tag interning and the pushdown decision are
  /// settled HERE, once, for every step -- existence-predicate sub-paths
  /// included -- instead of on every run. The decisions depend only on
  /// the snapshot and the semantic options (engine, backend, pushdown,
  /// twig, pushdown_selectivity, cost_model), so a plan compiled by one
  /// evaluator is valid for any evaluator over the same snapshot with
  /// equal semantic options -- the sharing contract of the Database
  /// plan cache, whose key is exactly those fields plus the epoch.
  CompiledPlan Compile(UnionExpr expr) const;

  /// Evaluates a compiled plan (document-order merge of the branches)
  /// with an explicit context sequence (document order, duplicate free).
  /// Absolute branches ignore `context` and start at the document
  /// element, as in the paper's usage root(doc).
  Result<NodeSequence> Evaluate(const CompiledPlan& plan,
                                const NodeSequence& context);

  /// Plan diagnostics of the most recent Evaluate call.
  const std::vector<StepTrace>& last_trace() const { return trace_; }

  /// The pool this evaluator's reads are charged to (null on the memory
  /// backend).
  storage::BufferPool* pool() const { return pool_; }

 private:
  /// One union branch; union branches share one trace.
  Result<NodeSequence> EvaluateBranch(const LocationPath& path,
                                      const PlannedPath& planned,
                                      const NodeSequence& context);
  Result<NodeSequence> EvalSteps(const std::vector<Step>& steps,
                                 const PlannedPath& planned,
                                 NodeSequence context, bool top_level);
  Result<NodeSequence> EvalStep(const Step& step, const NodeSequence& context,
                                bool top_level, const PlannedStep& plan);
  /// Longest eligible twig run starting at steps[first] (>= 2 levels, no
  /// predicates, name tests only, twig axes only): twig_consumed > 0 and
  /// one TwigLevel per chain level (a folded `descendant-or-self::node()`
  /// + `child::name` pair -- the parse of `//name` -- consumes two steps
  /// for one kDescendant level). twig_consumed == 0 when the
  /// engine/backend gates or the steps disqualify a collapse.
  PlannedStep MatchTwigRun(const std::vector<Step>& steps, size_t first) const;
  /// The cost model instance of this evaluator's snapshot: its
  /// DocStatistics, the merged logical size, the backend's page-cost
  /// unit, and per-tag counts read through BackendDispatch::TagCount --
  /// on an edited snapshot that is the overlay's MERGED dictionary, so
  /// fresh delta tags estimate from their real fragment sizes.
  CardinalityEstimator MakeEstimator() const;
  /// Plans a whole location path: the walk EvalSteps performs, chaining
  /// ContextEstimates from the root so every step carries
  /// estimated_rows and a cost-chosen operator. Per-run context sizes
  /// never influence a decision, so one plan serves every context.
  PlannedPath PlanPath(const std::vector<Step>& steps) const;
  /// The per-step planning decisions of one non-twig step (positional
  /// detection, tag interning, operator choice by cost, predicate
  /// sub-path plans); advances `ctx` to the step's output estimate.
  PlannedStep PlanStep(const Step& step, const CardinalityEstimator& est,
                       ContextEstimate* ctx) const;
  /// Evaluates a matched run as one twig join and records its trace:
  /// one twig entry plus a "subsumed" marker per remaining step, so
  /// EXPLAIN still lists one entry per query step.
  Result<NodeSequence> EvalTwigRun(const std::vector<Step>& steps,
                                   size_t first, const PlannedStep& plan,
                                   const NodeSequence& context,
                                   bool top_level);
  /// Naive-engine fallback: per-context evaluation over the resident
  /// (merged) table. The staircase engine routes positional steps
  /// through the set-at-a-time rank join instead (EvalStep).
  Result<NodeSequence> EvalStepPositional(const Step& step,
                                          const PlannedStep& plan,
                                          const NodeSequence& context);
  /// Applies a positional step's predicate chain to one context node's
  /// axis output (already reversed for reverse axes): positions index
  /// the list surviving the previous predicates. `absolute_verdict`
  /// memoizes context-invariant absolute predicate paths per step.
  Result<NodeSequence> RankWithinGroup(
      const Step& step, const PlannedStep& plan, NodeSequence axis_nodes,
      std::vector<std::optional<bool>>* absolute_verdict);
  Result<NodeSequence> ApplyPredicates(const Step& step,
                                       const PlannedStep& plan,
                                       NodeSequence nodes);
  Result<bool> PredicateHolds(const Predicate& pred,
                              const PlannedPath& planned, NodeId node);
  /// `doc` is the snapshot's MergedDoc(): the base table, or the
  /// materialized merged table when a delta overlay is active.
  NodeSequence FilterByTest(const DocTable& doc, const Step& step,
                            const NodeSequence& nodes) const;
  /// The pushdown decision: hint pins (kAlways/kNever) win; kAuto defers
  /// to the estimator's page-cost comparison (cost_model kAuto) or the
  /// legacy static selectivity threshold (cost_model kOff).
  bool ShouldPushdown(const Step& step, TagId tag,
                      const CardinalityEstimator& est,
                      const ContextEstimate& in) const;
  /// Tag lookup against the merged dictionary (base dictionary when
  /// pristine); nullopt for never-interned names.
  std::optional<TagId> LookupTag(std::string_view name) const;
  /// The context a path starts from: `context`, or the document element
  /// when `absolute`.
  NodeSequence StartOf(bool absolute, const NodeSequence& context) const;

  const DatabaseSnapshot& snap_;
  /// The snapshot's base table.
  const DocTable& doc_;
  EvalOptions options_;
  storage::BufferPool* pool_;
  std::vector<StepTrace> trace_;
};

}  // namespace sj::xpath

#endif  // STAIRJOIN_XPATH_EVALUATOR_H_
