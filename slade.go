// Package slade is a from-scratch Go implementation of SLADE — the Smart
// Large-scAle task DEcomposer of Tong, Chen, Zhou, Jagadish, Shou and Lv
// ("SLADE: A Smart Large-Scale Task Decomposer in Crowdsourcing").
//
// SLADE decomposes a large-scale crowdsourcing task (thousands to millions
// of independent binary atomic tasks) into batches of *task bins* — an
// l-cardinality bin holds l atomic tasks, gives each a per-task confidence
// r_l and costs c_l per use — so that every atomic task reaches a required
// reliability at (near-)minimal total incentive cost. The problem is
// NP-hard; this package exposes the paper's algorithms:
//
//   - NewGreedy: the Greedy heuristic (Algorithm 1), homogeneous and
//     heterogeneous thresholds.
//   - NewOPQ: the OPQ-Based approximation (Algorithms 2-3), homogeneous
//     thresholds, log n approximation ratio, optimal when n is a multiple
//     of the top combination's block size.
//   - NewOPQExtended: the partition-based extension (Algorithms 4-5) for
//     heterogeneous thresholds, 2⌈log(θmax/θmin)⌉·log n ratio.
//   - NewBaseline: the covering-integer-program baseline (Section 4.3):
//     LP relaxation via an internal simplex solver plus randomized
//     rounding and greedy repair.
//
// Quick start:
//
//	bins, _ := slade.NewBinSet([]slade.TaskBin{
//		{Cardinality: 1, Confidence: 0.90, Cost: 0.10},
//		{Cardinality: 2, Confidence: 0.85, Cost: 0.18},
//		{Cardinality: 3, Confidence: 0.80, Cost: 0.24},
//	})
//	in, _ := slade.NewHomogeneous(bins, 10000, 0.95)
//	plan, _ := slade.Decompose(in)
//	cost, _ := plan.Cost(bins)
//
// The repository also ships the substrates the paper's evaluation needs: a
// simulated crowd marketplace (NewJellyPlatform / NewSMICPlatform), probe
// based bin calibration (Calibrate), threshold workload generators, and a
// benchmark harness regenerating every figure of the paper (see cmd/ and
// the Fig* re-exports).
package slade

import (
	"context"
	"fmt"
	"log"
	"net/http"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/binset"
	"repro/internal/budget"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/crowdsim"
	"repro/internal/distgen"
	"repro/internal/dp"
	"repro/internal/executor"
	"repro/internal/greedy"
	"repro/internal/hetero"
	"repro/internal/opq"
	"repro/internal/refine"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/stream"
)

// Core model types; see the respective methods for the full API.
type (
	// TaskBin is an l-cardinality task bin <l, r_l, c_l>.
	TaskBin = core.TaskBin
	// BinSet is a menu of task bins, one per cardinality.
	BinSet = core.BinSet
	// Instance is a SLADE problem: a menu plus per-task thresholds.
	Instance = core.Instance
	// Plan is a decomposition plan: bin uses with task placements, held
	// in the compact PlanRuns form. Per-use views are produced lazily
	// (Plan.Materialized, Plan.EachUse); PlanFromUses builds a plan from
	// a use list.
	Plan = core.Plan
	// PlanRuns is the block-run form every Plan holds: run metadata over
	// one task-id arena (implicit when the ids are a contiguous range),
	// expanded only where per-use lists are needed.
	PlanRuns = core.PlanRuns
	// BinUse is one bin use within a plan — the wire and edge form.
	BinUse = core.BinUse
	// Summary is a compact plan description (uses per cardinality, cost).
	Summary = core.Summary
	// Solver is the interface all SLADE algorithms implement.
	Solver = core.Solver
	// OPQ is the Optimal Priority Queue of Definition 4.
	OPQ = opq.Queue
	// Comb is one combination of task bins in an OPQ.
	Comb = opq.Comb
	// Platform is the simulated crowd marketplace.
	Platform = crowdsim.Platform
	// PlatformParams parameterizes a Platform's task model.
	PlatformParams = crowdsim.Params
	// CalibrationResult is the outcome of probe-based menu calibration.
	CalibrationResult = calib.Result
	// CalibrationOptions configures Calibrate.
	CalibrationOptions = calib.Options
	// Pricing is a per-task price curve used to derive menus.
	Pricing = binset.Pricing
)

// Constructors and helpers re-exported from the core model.
var (
	// NewBinSet builds a validated menu from bins.
	NewBinSet = core.NewBinSet
	// MustBinSet is NewBinSet that panics on error.
	MustBinSet = core.MustBinSet
	// NewHomogeneous builds an instance of n tasks sharing threshold t.
	NewHomogeneous = core.NewHomogeneous
	// NewHeterogeneous builds an instance with per-task thresholds.
	NewHeterogeneous = core.NewHeterogeneous
	// Theta converts a reliability threshold to transformed demand
	// -ln(1-t) (Eq. 2 of the paper).
	Theta = core.Theta
	// ThresholdFromTheta inverts Theta.
	ThresholdFromTheta = core.ThresholdFromTheta
	// LowerBoundLP is the fractional covering lower bound on plan cost.
	LowerBoundLP = core.LowerBoundLP
)

// NewGreedy returns the Greedy solver (Algorithm 1).
func NewGreedy() Solver { return greedy.Solver{} }

// NewOPQ returns the OPQ-Based solver (Algorithm 3); homogeneous instances
// only.
func NewOPQ() Solver { return opq.Solver{} }

// NewOPQExtended returns the OPQ-Extended solver (Algorithm 5); handles
// both homogeneous and heterogeneous instances.
func NewOPQExtended() Solver { return hetero.Solver{} }

// NewBaseline returns the CIP baseline solver of Section 4.3 with the given
// rounding seed.
func NewBaseline(seed int64) Solver { return baseline.Solver{Seed: seed} }

// BuildOPQ constructs the Optimal Priority Queue (Algorithm 2) for a menu
// and threshold. The queue can be reused across SolveWithOPQ calls.
func BuildOPQ(bins BinSet, t float64) (*OPQ, error) { return opq.Build(bins, t) }

// SolveWithOPQ runs Algorithm 3 over the given task identifiers with a
// pre-built queue: a constant number of allocations regardless of task
// count, no per-use expansion until Materialized is called.
func SolveWithOPQ(q *OPQ, tasks []int) (*Plan, error) { return opq.SolveWithQueue(q, tasks) }

// SolveRunsWithOPQ is SolveWithOPQ returning the bare run form, for
// callers that merge or clone runs themselves; NewRunPlan wraps it.
func SolveRunsWithOPQ(q *OPQ, tasks []int) (*PlanRuns, error) { return opq.SolveRuns(q, tasks) }

// NewRunPlan wraps a PlanRuns in the Plan API; the plan owns it.
func NewRunPlan(pr *PlanRuns) *Plan { return core.NewRunPlan(pr) }

// PlanFromUses builds a plan that expands to exactly the given use list,
// rejecting a use with a non-positive cardinality, no tasks, or more
// tasks than its cardinality.
func PlanFromUses(uses []BinUse) (*Plan, error) { return core.PlanFromUses(uses) }

// Decompose solves the instance with the paper's recommended algorithm for
// its shape: OPQ-Based for homogeneous thresholds, OPQ-Extended otherwise.
func Decompose(in *Instance) (*Plan, error) {
	if in == nil {
		return nil, fmt.Errorf("slade: nil instance")
	}
	if in.Homogeneous() {
		return opq.Solver{}.Solve(in)
	}
	return hetero.Solve(in)
}

// SolveRelaxedExact solves the polynomial relaxed variant of Section 4.2
// exactly (every bin confidence ≥ every threshold) via rod-cutting dynamic
// programming; it errors on non-relaxed instances.
func SolveRelaxedExact(in *Instance) (*Plan, error) { return dp.RodCutting(in) }

// Datasets and crowd-market substrates.

// Table1Menu returns the running-example menu of Table 1 of the paper.
func Table1Menu() BinSet { return binset.Table1() }

// JellyMenu returns the Jelly-Beans-in-a-Jar menu with cardinalities
// 1..maxCard, derived from the simulated crowd market.
func JellyMenu(maxCard int) (BinSet, error) { return binset.Jelly(maxCard) }

// SMICMenu returns the Micro-Expressions Identification menu with
// cardinalities 1..maxCard.
func SMICMenu(maxCard int) (BinSet, error) { return binset.SMIC(maxCard) }

// NewJellyPlatform returns a simulated marketplace with the Jelly task
// model (Example 2 of the paper) and the given RNG seed.
func NewJellyPlatform(seed int64) *Platform { return crowdsim.New(crowdsim.Jelly(), seed) }

// NewSMICPlatform returns a simulated marketplace with the SMIC task model
// (Example 3).
func NewSMICPlatform(seed int64) *Platform { return crowdsim.New(crowdsim.SMIC(), seed) }

// NewPlatform returns a simulated marketplace with custom parameters.
func NewPlatform(p PlatformParams, seed int64) *Platform { return crowdsim.New(p, seed) }

// Calibrate learns a bin menu from probe bins on a platform (Section 3.1's
// "regression or counting methods").
func Calibrate(pl *Platform, opts CalibrationOptions) (*CalibrationResult, error) {
	return calib.Calibrate(pl, opts)
}

// Extensions beyond the paper's algorithms: execution, budgeting,
// streaming, and plan diagnostics.

type (
	// ExecutionOptions configures Execute (retries, top-up rounds).
	ExecutionOptions = executor.Options
	// ExecutionReport is the outcome of an Execute run.
	ExecutionReport = executor.Report
	// BinRunner is the executor's view of a marketplace: Platform
	// satisfies it, and crowdsim.PoolRunner adapts a worker pool.
	BinRunner = executor.BinRunner
	// BudgetOptions configures MaxReliability.
	BudgetOptions = budget.Options
	// BudgetResult is the outcome of a budget search.
	BudgetResult = budget.Result
	// StreamPlanner incrementally decomposes tasks arriving in batches.
	StreamPlanner = stream.Planner
	// PlanStats summarizes a plan's spend, slack and coverage.
	PlanStats = analysis.Stats
	// RefineResult reports what a refinement pass changed.
	RefineResult = refine.Result
)

// Refine post-optimizes a feasible plan with cost-only-decreasing local
// moves (pruning redundant uses, downgrading oversized bins); the result is
// always feasible and never costs more than the input.
func Refine(in *Instance, plan *Plan) (*RefineResult, error) {
	return refine.Refine(in, plan)
}

// Execute runs a plan against a platform, re-issuing overtime bins and
// optionally topping up under-delivered reliability; truth carries
// ground-truth labels for measuring the achieved no-false-negative rate.
func Execute(pl *Platform, in *Instance, plan *Plan, truth []bool, opts ExecutionOptions) (*ExecutionReport, error) {
	return executor.Execute(pl, in, plan, truth, opts)
}

// ExecuteContext is Execute against any BinRunner with cooperative
// cancellation: the context is observed before every bin issue, so a
// cancel stops the run at the next bin boundary.
func ExecuteContext(ctx context.Context, r BinRunner, in *Instance, plan *Plan, truth []bool, opts ExecutionOptions) (*ExecutionReport, error) {
	return executor.ExecuteContext(ctx, r, in, plan, truth, opts)
}

// MaxReliability answers the budgeted dual of SLADE: the highest uniform
// reliability n tasks can reach within the given budget, with its plan.
func MaxReliability(bins BinSet, n int, budgetUSD float64, opts BudgetOptions) (*BudgetResult, error) {
	return budget.MaxReliability(bins, n, budgetUSD, opts)
}

// CostCurve evaluates the OPQ-Based cost of n tasks at each threshold.
func CostCurve(bins BinSet, n int, thresholds []float64) ([]float64, error) {
	return budget.CostCurve(bins, n, thresholds)
}

// NewStreamPlanner builds an incremental planner for tasks arriving in
// batches; plans are emitted per optimal block (Corollary 1) and the total
// streamed cost equals the one-shot OPQ-Based cost.
func NewStreamPlanner(bins BinSet, t float64) (*StreamPlanner, error) {
	return stream.NewPlanner(bins, t)
}

// AnalyzePlan computes diagnostic statistics of a plan (cost breakdown,
// fill rate, reliability slack, distance from the LP bound).
func AnalyzePlan(in *Instance, plan *Plan) (*PlanStats, error) {
	return analysis.Analyze(in, plan)
}

// ComparePlans renders a side-by-side diagnostic table of named plans on a
// shared instance.
func ComparePlans(in *Instance, plans map[string]*Plan) (string, error) {
	return analysis.Compare(in, plans)
}

// Serving layer: the long-running decomposition service behind cmd/sladed.

type (
	// Service is the concurrent decomposition service: OPQ cache, gated
	// cached solver, solver registry, and async job manager.
	Service = service.Service
	// ServiceConfig parameterizes NewService.
	ServiceConfig = service.Config
	// ServiceStats is the counter snapshot served by GET /v1/stats.
	ServiceStats = service.Stats
	// OPQCache is the LRU + request-coalescing queue cache.
	OPQCache = service.OPQCache
	// CacheStats reports queue-cache effectiveness.
	CacheStats = service.CacheStats
	// BatchStats reports the request batcher's coalescing effectiveness.
	BatchStats = service.BatchStats
	// ShardedSolver is the cached solve path behind the "sharded" route:
	// one solve per request, at most Workers at once.
	ShardedSolver = service.ShardedSolver
	// JobManager runs asynchronous decomposition jobs.
	JobManager = service.JobManager
	// JobRequest describes one async job (solve, streaming, or run).
	JobRequest = service.JobRequest
	// JobStatus is an async job snapshot.
	JobStatus = service.JobStatus
	// StreamJob is the streaming-arrival job payload.
	StreamJob = service.StreamJob
	// RunJob is the run-job payload: plan an instance, then execute the
	// plan against a simulated platform and report delivered reliability.
	RunJob = service.RunJob
	// RunPlatformSpec selects and seeds a run job's simulated platform.
	RunPlatformSpec = service.PlatformSpec
	// PlatformFactory builds run-job platforms; ServiceConfig.PlatformFactory
	// overrides the crowdsim-backed default.
	PlatformFactory = service.PlatformFactory
	// JobExecutionReport is the persisted outcome of a run job (the
	// service-level wire form of an ExecutionReport).
	JobExecutionReport = service.ExecutionReport
)

// DefaultBatchWindow is the request-batcher accumulation window cmd/sladed
// enables by default; ServiceConfig.BatchWindow = 0 keeps batching off.
const DefaultBatchWindow = service.DefaultBatchWindow

// DefaultBatchMaxRequests is the per-batch size cap used when
// ServiceConfig.BatchMaxRequests is unset.
const DefaultBatchMaxRequests = service.DefaultBatchMaxRequests

// NewService builds the decomposition service with the standard solvers
// registered ("sharded", "greedy", "opq", "opq-extended", "baseline").
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewServiceHandler returns the service's HTTP JSON API (the handler
// cmd/sladed serves).
func NewServiceHandler(s *Service) http.Handler { return service.NewHandler(s) }

// NewOPQCache returns a standalone queue cache for embedding the caching
// layer without the full service.
func NewOPQCache(capacity int) *OPQCache { return service.NewOPQCache(capacity) }

// Durable state layer: the pluggable store behind ServiceConfig.Store.
// See docs/FORMATS.md for the on-disk record format.
type (
	// JobStore is the pluggable durable state interface the service
	// spills terminal jobs into.
	JobStore = store.Store
	// JobRecord is the durable (versioned JSON) form of a terminal job.
	JobRecord = store.JobRecord
	// FSStore is the crash-safe filesystem JobStore.
	FSStore = store.FS
	// MemStore is the in-memory JobStore (state dies with the process).
	MemStore = store.Mem
)

// OpenFSStore opens (creating if needed) a crash-safe filesystem store
// rooted at dir — the store cmd/sladed uses for -data-dir. A nil logger
// falls back to log.Default().
func OpenFSStore(dir string, logger *log.Logger) (*FSStore, error) {
	return store.OpenFS(dir, logger)
}

// NewMemStore returns an in-memory store: useful in tests and in
// deployments that want TTL eviction without disk durability.
func NewMemStore() *MemStore { return store.NewMem() }

// MenuFingerprint returns the canonical cache key for (menu, threshold) —
// two pairs share a fingerprint exactly when they build identical queues.
func MenuFingerprint(bins BinSet, t float64) string { return opq.Fingerprint(bins, t) }

// Threshold workload generators (Section 7.2).
var (
	// HomogeneousThresholds returns n copies of t.
	HomogeneousThresholds = distgen.Homogeneous
	// NormalThresholds draws thresholds from a clamped normal
	// distribution — the paper's heterogeneous default.
	NormalThresholds = distgen.Normal
	// UniformThresholds draws thresholds uniformly from a range.
	UniformThresholds = distgen.Uniform
	// HeavyTailedThresholds draws thresholds with a Pareto tail below the
	// upper bound.
	HeavyTailedThresholds = distgen.HeavyTailed
	// DefaultThresholdBounds clamp generated thresholds.
	DefaultThresholdBounds = distgen.DefaultBounds
)
