package scenario

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"repro/internal/executor"
	"repro/internal/service"
)

// Options configures a matrix run.
type Options struct {
	// Workers is the service's solve-slot count (and job concurrency);
	// <= 0 selects 4. It never changes a result, only how many solves
	// and jobs run at once.
	Workers int
	// Timing includes wall-clock timing blocks (solve and queue-wait
	// quantiles from the service's obs histograms) in each cell result.
	// Off by default: wall-clock is the one nondeterministic quantity,
	// and leaving it out keeps the report byte-identical across runs.
	Timing bool
	// Logf, when non-nil, receives one progress line per completed cell.
	Logf func(format string, args ...any)
}

// jobPollInterval paces job-status polling; executions are simulated (no
// real waiting), so cells drain in milliseconds.
const jobPollInterval = 500 * time.Microsecond

// jobTimeout bounds one cell's drain; hitting it means the pipeline
// wedged, which should fail loudly rather than hang a CI job.
const jobTimeout = 5 * time.Minute

// Run executes every cell of the matrix through a real service pipeline
// — cache, batcher, gated solver, executor — and aggregates each
// cell's run reports into a frontier record. Cells run in order and their
// requests are folded in submission order, so the report is a pure
// function of the matrix (plus wall-clock timing only when requested).
func Run(m Matrix, opts Options) (*Report, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if len(m.Cells) == 0 {
		return nil, fmt.Errorf("scenario: matrix %q has no cells", m.Name)
	}
	for _, c := range m.Cells {
		if err := c.validate(); err != nil {
			return nil, err
		}
	}
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		Matrix:        m.Name,
		Seed:          m.Seed,
		Cells:         make([]CellResult, 0, len(m.Cells)),
	}
	for _, cell := range m.Cells {
		res, err := runCell(cell, DeriveSeed(m.Seed, cell.Name()), opts)
		if err != nil {
			return nil, err
		}
		rep.Cells = append(rep.Cells, res)
		if opts.Logf != nil {
			opts.Logf("cell %-44s reliability %.3f (target %.2f)  spend/task $%.4f  bins %d",
				res.Cell, res.Reliability, res.TargetReliability, res.SpendPerTask, res.BinsIssued)
		}
	}
	return rep, nil
}

// runCell drives one cell end to end on a fresh service.
func runCell(cell Cell, cellSeed int64, opts Options) (CellResult, error) {
	menu, err := cell.Menu.Build()
	if err != nil {
		return CellResult{}, err
	}
	svc := service.New(service.Config{
		CacheSize: 64,
		Workers:   opts.Workers,
		// The batcher is part of the pipeline under test: bursty cells
		// coalesce into shared flushes, and a batched plan is its solo
		// plan, so it stays on for every cell.
		BatchWindow: 2 * time.Millisecond,
		Slog:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer svc.Close()

	reqs, err := cell.workload(menu, cellSeed)
	if err != nil {
		return CellResult{}, err
	}

	start := time.Now()
	ids := make([]string, len(reqs))
	submit := func(i int) error {
		id, err := svc.Jobs().Submit(service.JobRequest{Run: &service.RunJob{
			Instance: reqs[i].in,
			Platform: cell.platformSpec(reqs[i].seed),
			Options:  executor.Options{TopUp: true},
		}})
		ids[i] = id
		return err
	}
	if cell.Arrival == ArrivalBursty && cell.Burst > 1 {
		// Concurrent bursts: submissions race into the batcher's window
		// on purpose. Whether any two requests coalesce is timing-
		// dependent, but batched plans are pinned bit-identical to solo
		// solves, so the fold below stays deterministic either way.
		for base := 0; base < len(reqs); base += cell.Burst {
			end := base + cell.Burst
			if end > len(reqs) {
				end = len(reqs)
			}
			var wg sync.WaitGroup
			errs := make([]error, end-base)
			for i := base; i < end; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i-base] = submit(i)
				}(i)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return CellResult{}, fmt.Errorf("scenario: cell %q: %w", cell.Name(), err)
				}
			}
			if err := drain(svc, ids[base:end], cell); err != nil {
				return CellResult{}, err
			}
		}
	} else {
		for i := range reqs {
			if err := submit(i); err != nil {
				return CellResult{}, fmt.Errorf("scenario: cell %q: %w", cell.Name(), err)
			}
		}
		if err := drain(svc, ids, cell); err != nil {
			return CellResult{}, err
		}
	}

	// Fold execution reports in submission order: float sums are
	// order-sensitive, and a fixed order is what keeps them reproducible.
	res := CellResult{
		Cell:                    cell.Name(),
		Arrival:                 string(cell.Arrival),
		Pool:                    string(cell.Pool),
		Budget:                  string(cell.Budget),
		Menu:                    cell.Menu.Name,
		Seed:                    cellSeed,
		Requests:                len(reqs),
		TargetReliability:       cell.MinReliability,
		MinDeliveredReliability: 1,
	}
	var thresholdSum float64
	for _, id := range ids {
		st, err := svc.Jobs().Status(id)
		if err != nil {
			return CellResult{}, err
		}
		r := st.Report
		res.Tasks += r.Tasks
		res.Positives += r.Positives
		res.Detected += r.Detected
		res.PlannedCost += r.PlannedCost
		res.Spend += r.Spent
		res.BinsIssued += r.BinsIssued
		res.OvertimeBins += r.OvertimeBins
		res.AbandonedBins += r.AbandonedBins
		res.TopUpRounds += r.TopUpRounds
		res.CoveredTasks += r.CoveredTasks
		res.UncoveredTasks += r.UncoveredCount
		thresholdSum += r.TargetReliability
		if r.MinDeliveredReliability < res.MinDeliveredReliability {
			res.MinDeliveredReliability = r.MinDeliveredReliability
		}
		if r.MakeSpanMS > res.MakeSpanMS {
			res.MakeSpanMS = r.MakeSpanMS
		}
	}
	if res.Positives > 0 {
		res.Reliability = float64(res.Detected) / float64(res.Positives)
	} else {
		res.Reliability = 1
	}
	if len(ids) > 0 {
		res.MeanPlannedThreshold = thresholdSum / float64(len(ids))
	}
	if res.Tasks > 0 {
		res.SpendPerTask = res.Spend / float64(res.Tasks)
	}
	if opts.Timing {
		stats := svc.Stats()
		res.Timing = &CellTiming{
			WallMS:         float64(time.Since(start).Microseconds()) / 1e3,
			SolveP50MS:     stats.Latency.P50MS,
			SolveP95MS:     stats.Latency.P95MS,
			SolveP99MS:     stats.Latency.P99MS,
			QueueWaitP95MS: stats.QueueWait.P95MS,
		}
	}
	return res, nil
}

// platformSpec maps the cell's pool axis onto the serving layer's wire
// spec. The spec follows PlatformSpec's conventions: zero keeps the
// crowdsim default, negative means explicitly none.
func (c Cell) platformSpec(seed int64) service.PlatformSpec {
	spec := service.PlatformSpec{Model: c.Menu.Dataset, Seed: seed}
	switch c.Pool {
	case PoolHomogeneous:
		// Anonymous per-bin workers: PoolSize stays 0.
	case PoolHeterogeneous:
		spec.PoolSize = c.PoolSize // default skill spread and spammer share
	case PoolAdversarial:
		spec.PoolSize = c.PoolSize
		spec.SpammerFraction = 0.30
		spec.SkillSigma = 0.08
	}
	return spec
}

// drain waits until every listed job is terminal and Done; any other
// terminal state fails the cell.
func drain(svc *service.Service, ids []string, cell Cell) error {
	deadline := time.Now().Add(jobTimeout)
	for _, id := range ids {
		for {
			st, err := svc.Jobs().Status(id)
			if err != nil {
				return err
			}
			if st.State.Terminal() {
				if st.State != service.JobDone {
					return fmt.Errorf("scenario: cell %q: job %s settled %s: %s", cell.Name(), id, st.State, st.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("scenario: cell %q: job %s still %s after %v", cell.Name(), id, st.State, jobTimeout)
			}
			time.Sleep(jobPollInterval)
		}
	}
	return nil
}
