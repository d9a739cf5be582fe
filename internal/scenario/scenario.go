// Package scenario is the workload lab of the repository: a declarative,
// seeded scenario matrix that composes the simulation assets — distgen
// threshold workloads, crowdsim platforms and worker pools, budget caps,
// and the binset menus — into end-to-end runs through the real serving
// pipeline (cache → batcher → cached solver → executor), one cell per
// combination of axes.
//
// Every cell is derived-seed deterministic: the matrix seed fixes each
// cell's seed, each cell seed fixes each request's platform seed, and the
// platform seed fixes the worker pool and ground-truth streams (the
// service's documented derivation rules). The same matrix seed therefore
// renders to a byte-identical report, which is what lets CI gate on the
// reliability/cost frontier the same way it gates on allocations.
//
// # Seed derivation
//
// The rules, from the top:
//
//	cellSeed    = fold(matrixSeed, cellName)        (FNV-1a over the name)
//	reqSeed(i)  = fold(cellSeed, "req/<i>")         (one platform per request)
//	workload    = fold(cellSeed, "workload")        (sizes and thresholds)
//	poolSeed    = reqSeed·0x9E3779B9 + "pool"       (service/run.go rule)
//	truthSeed   = reqSeed·0x9E3779B9 + "trut"       (service/run.go rule)
//
// The last two are applied by the serving layer itself (see
// service.PlatformSpec); the scenario engine only ever hands out request
// seeds, so a cell replays identically whether it is executed here or
// re-submitted job by job against a live daemon.
package scenario

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/binset"
	"repro/internal/core"
)

// ArrivalPattern shapes how a cell's requests arrive: their sizes, their
// threshold workload, and their concurrency.
type ArrivalPattern string

const (
	// ArrivalUniform submits equal-sized homogeneous requests one at a
	// time — the steady-state baseline.
	ArrivalUniform ArrivalPattern = "uniform"
	// ArrivalSkewed draws heavy-tailed request sizes (many small, a few
	// large) and heterogeneous per-task thresholds from the distgen
	// Pareto tail, exercising the Algorithm-4 partition path.
	ArrivalSkewed ArrivalPattern = "skewed"
	// ArrivalBursty submits equal-sized homogeneous requests in
	// concurrent bursts, so the service's request batcher coalesces them
	// into shared flushes.
	ArrivalBursty ArrivalPattern = "bursty"
)

// PoolKind selects the worker population a cell executes against.
type PoolKind string

const (
	// PoolHomogeneous uses anonymous per-bin platform workers — every
	// answer drawn from the same confidence model.
	PoolHomogeneous PoolKind = "homogeneous"
	// PoolHeterogeneous routes bins through a persistent worker
	// population with the default skill spread and spammer share.
	PoolHeterogeneous PoolKind = "heterogeneous"
	// PoolAdversarial is a hostile population: a wide skill spread and a
	// large random-answer (spammer) share.
	PoolAdversarial PoolKind = "adversarial"
)

// BudgetRegime selects how a cell picks its reliability threshold.
type BudgetRegime string

const (
	// BudgetUnbounded plans at the cell's requested threshold.
	BudgetUnbounded BudgetRegime = "unbounded"
	// BudgetCapped inverts the cost function with internal/budget: each
	// request plans at the highest threshold whose OPQ cost fits the
	// cell's per-task budget.
	BudgetCapped BudgetRegime = "capped"
)

// MenuSpec names one bin menu of the sweep.
type MenuSpec struct {
	// Name labels the menu in cell names and reports ("jelly20").
	Name string
	// Dataset is "jelly" or "smic" — the crowd model the menu (and the
	// simulated platform) derives from.
	Dataset string
	// MaxCard is the menu's largest bin cardinality |B|.
	MaxCard int
}

// Build constructs the menu.
func (m MenuSpec) Build() (core.BinSet, error) {
	switch m.Dataset {
	case "jelly":
		return binset.Jelly(m.MaxCard)
	case "smic":
		return binset.SMIC(m.MaxCard)
	default:
		return core.BinSet{}, fmt.Errorf("scenario: unknown dataset %q (have jelly, smic)", m.Dataset)
	}
}

// Cell is one point of the scenario matrix: an axis combination plus the
// workload scale it runs at and the delivered-reliability floor it
// declares (the CI smoke gate fails any cell below its own floor).
type Cell struct {
	// Arrival, Pool, Budget and Menu are the axes.
	Arrival ArrivalPattern
	Pool    PoolKind
	Budget  BudgetRegime
	Menu    MenuSpec

	// Requests is the number of run jobs the cell submits.
	Requests int
	// Tasks is the nominal per-request task count (skewed arrivals draw
	// around it).
	Tasks int
	// Burst is the bursty-arrival concurrency; <= 1 submits sequentially.
	Burst int
	// Threshold is the requested reliability in the unbounded regime and
	// the upper bound of skewed threshold draws.
	Threshold float64
	// BudgetPerTask caps the planned cost per task in the capped regime.
	BudgetPerTask float64
	// PoolSize is the worker population size for pooled kinds.
	PoolSize int
	// MinReliability is the cell's declared delivered-reliability target:
	// the empirical reliability the run must reach for the scenario-smoke
	// gate to pass. Targets are set per axis combination (an adversarial
	// pool legitimately delivers less than an honest one).
	MinReliability float64
}

// Name renders the cell's axis coordinates as its stable identifier —
// the string cell seeds derive from, so renaming a cell re-seeds it.
func (c Cell) Name() string {
	return fmt.Sprintf("%s/%s/%s/%s", c.Arrival, c.Pool, c.Budget, c.Menu.Name)
}

// validate rejects malformed cells before any work is done.
func (c Cell) validate() error {
	switch c.Arrival {
	case ArrivalUniform, ArrivalSkewed, ArrivalBursty:
	default:
		return fmt.Errorf("scenario: cell %q: unknown arrival pattern %q", c.Name(), c.Arrival)
	}
	switch c.Pool {
	case PoolHomogeneous, PoolHeterogeneous, PoolAdversarial:
	default:
		return fmt.Errorf("scenario: cell %q: unknown pool kind %q", c.Name(), c.Pool)
	}
	switch c.Budget {
	case BudgetUnbounded, BudgetCapped:
	default:
		return fmt.Errorf("scenario: cell %q: unknown budget regime %q", c.Name(), c.Budget)
	}
	if c.Requests < 1 || c.Tasks < 1 {
		return fmt.Errorf("scenario: cell %q: needs positive requests and tasks (%d, %d)", c.Name(), c.Requests, c.Tasks)
	}
	if !(c.Threshold > 0 && c.Threshold < 1) {
		return fmt.Errorf("scenario: cell %q: threshold %v outside (0,1)", c.Name(), c.Threshold)
	}
	if c.Budget == BudgetCapped && c.BudgetPerTask <= 0 {
		return fmt.Errorf("scenario: cell %q: capped regime needs a positive per-task budget", c.Name())
	}
	if c.Pool != PoolHomogeneous && c.PoolSize < 1 {
		return fmt.Errorf("scenario: cell %q: pooled kinds need a positive pool size", c.Name())
	}
	return nil
}

// Matrix is a named set of cells run under one seed.
type Matrix struct {
	// Name labels the matrix in the report ("default", "short").
	Name string
	// Seed is the top of the derivation chain; every cell, request,
	// platform, pool and truth stream is a pure function of it.
	Seed int64
	// Cells are run in order; their aggregation order is fixed, so the
	// report is deterministic even when a cell executes concurrently.
	Cells []Cell
}

// Filter returns a copy keeping only cells whose name contains any of the
// given substrings, ignoring case (all cells when none are given).
// Filtering never re-seeds the survivors: cell seeds derive from cell
// names, not indices.
func (m Matrix) Filter(substrings []string) Matrix {
	if len(substrings) == 0 {
		return m
	}
	out := Matrix{Name: m.Name, Seed: m.Seed}
	for _, c := range m.Cells {
		name := c.Name()
		for _, sub := range substrings {
			if sub != "" && strings.Contains(strings.ToLower(name), strings.ToLower(sub)) {
				out.Cells = append(out.Cells, c)
				break
			}
		}
	}
	return out
}

// DeriveSeed folds a tag string into a seed: the derived value is a pure
// function of (seed, tag), and distinct tags decorrelate the resulting
// RNG streams. This is the scenario-level analogue of the serving layer's
// integer-tag rule (service.PlatformSpec's pool/truth derivation).
func DeriveSeed(seed int64, tag string) int64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	return seed*0x9E3779B9 + int64(h.Sum64())
}

// reqSeed is the platform seed of request i within a cell.
func reqSeed(cellSeed int64, i int) int64 {
	return DeriveSeed(cellSeed, fmt.Sprintf("req/%d", i))
}
