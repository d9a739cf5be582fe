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
// harness regenerating every figure of the paper (cmd/sladesim -fig).
package slade

import (
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
	// in compact block-run form — run metadata over one task-id arena
	// (implicit when the ids are a contiguous range). Per-use views are
	// produced on demand (Plan.Materialized, Plan.EachUse).
	Plan = core.Plan
	// Solver is the interface all SLADE algorithms implement.
	Solver = core.Solver
	// OPQ is the Optimal Priority Queue of Definition 4.
	OPQ = opq.Queue
	// Platform is the simulated crowd marketplace.
	Platform = crowdsim.Platform
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
	// NewHomogeneous builds an instance of n tasks sharing threshold t.
	NewHomogeneous = core.NewHomogeneous
	// NewHeterogeneous builds an instance with per-task thresholds.
	NewHeterogeneous = core.NewHeterogeneous
	// Theta converts a reliability threshold to transformed demand
	// -ln(1-t) (Eq. 2 of the paper).
	Theta = core.Theta
	// ThresholdFromTheta inverts Theta.
	ThresholdFromTheta = core.ThresholdFromTheta
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
// and threshold.
func BuildOPQ(bins BinSet, t float64) (*OPQ, error) { return opq.Build(bins, t) }

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
)

// DefaultBatchWindow is the request-batcher accumulation window cmd/sladed
// enables by default; ServiceConfig.BatchWindow = 0 keeps batching off.
const DefaultBatchWindow = service.DefaultBatchWindow

// NewService builds the decomposition service with the standard solvers
// registered ("sharded", "greedy", "opq", "opq-extended", "baseline").
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewServiceHandler returns the service's HTTP JSON API (the handler
// cmd/sladed serves).
func NewServiceHandler(s *Service) http.Handler { return service.NewHandler(s) }

// Durable state layer: the pluggable store behind ServiceConfig.Store.
// See docs/FORMATS.md for the on-disk record format.

// FSStore is the crash-safe filesystem store; ServiceConfig.Store takes it.
type FSStore = store.FS

// OpenFSStore opens (creating if needed) a crash-safe filesystem store
// rooted at dir — the store cmd/sladed uses for -data-dir. A nil logger
// falls back to log.Default().
func OpenFSStore(dir string, logger *log.Logger) (*FSStore, error) {
	return store.OpenFS(dir, logger)
}

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
