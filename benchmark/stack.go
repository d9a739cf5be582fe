package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/binset"
	"repro/internal/cluster/testcluster"
	"repro/internal/platform/testplatform"
	"repro/internal/service"
	"repro/internal/store"
)

// seedRecords is how many terminal job records a jobs-durable set-up
// writes before booting the service, so that boot replays a populated
// store (store reads land in setup_s, store writes in ops_per_s).
const seedRecords = 250

var discardLog = log.New(io.Discard, "", 0)

// stack is the system under test: the real service behind a real loopback
// listener, with whichever of peers, marketplace and durable store the
// workload needs, plus the benchmark's one HTTP client.
type stack struct {
	svc     *service.Service
	handler http.Handler // the same routes without a socket, for the traced run
	url     string
	client  *http.Client

	srv      *http.Server
	serveErr chan error
	tc       *testcluster.Cluster
	market   *testplatform.Server
	store    *store.FS // the service's own handle on dir
	dir      string    // durable store root, removed on close
}

// boot brings the workload's stack up. scale shrinks the seeded store the
// same way it shrinks the op lists.
func boot(w *workload, seed int64, outDir string, scale float64) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	tr := &http.Transport{MaxConnsPerHost: w.clients(), MaxIdleConnsPerHost: w.clients(), DisableCompression: true}
	s.client = &http.Client{Transport: tr}

	if w.name == "cluster-fanout" {
		// testcluster's own defaults are tuned for tests (1-block spans,
		// 2 s timeout, no retries); zeroing them in Configure selects the
		// production defaults, and PeerRetries is sladed's flag default.
		s.tc, err = testcluster.Start(testcluster.Options{Nodes: 3, Seed: seed, Configure: func(_ int, cfg *service.Config) {
			cfg.BatchWindow = service.DefaultBatchWindow
			cfg.ClusterMinSpanBlocks = 0
			cfg.ClusterTimeout = 0
			cfg.ClusterCooldown = 0
			cfg.PeerRetries = 1
			cfg.Logger = discardLog
		}})
		if err != nil {
			return nil, err
		}
		entry := s.tc.Node(0)
		s.svc, s.url = entry.Service, entry.URL
		s.handler = service.NewHandler(s.svc)
		return s, nil
	}

	// cmd/sladed's flag defaults: 2 ms batch window, default cache (128)
	// and batch cap (256), workers = CPUs. Per-request logs are formatted
	// as in production and written to a discarding logger.
	cfg := service.Config{BatchWindow: service.DefaultBatchWindow, Logger: discardLog}
	if w.kind == opJob {
		if s.market, err = testplatform.New(testplatform.Options{Seed: seed}); err != nil {
			return nil, err
		}
		cfg.PlatformURL = s.market.URL()
		if s.dir, err = os.MkdirTemp(outDir, "store-"); err != nil {
			return nil, err
		}
		if err := seedStore(s.dir, max(1, int(float64(seedRecords)*scale)), w.n); err != nil {
			return nil, err
		}
		// Reopen, as a restarted daemon would: service.New replays the
		// records written above.
		if s.store, err = store.OpenFS(s.dir, discardLog); err != nil {
			return nil, err
		}
		cfg.Store = s.store
	}
	s.svc = service.New(cfg)
	s.handler = service.NewHandler(s.svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops everything boot started and waits for the listener loop.
func (s *stack) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.tc != nil {
		s.tc.Close()
	} else if s.svc != nil {
		s.svc.Close() //nolint:errcheck // always nil
	}
	if s.srv != nil {
		s.srv.Close() //nolint:errcheck // listener teardown
		if err := <-s.serveErr; !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "benchmark: listener:", err)
		}
	}
	if s.market != nil {
		s.market.Close()
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: closing the store:", err)
		}
	}
	if s.dir != "" {
		os.RemoveAll(s.dir) //nolint:errcheck // scratch directory
	}
}

// seedStore writes count terminal run-job records, shaped like the ones
// the measured jobs will add, into a fresh FS store at dir.
func seedStore(dir string, count, n int) error {
	st, err := store.OpenFS(dir, discardLog)
	if err != nil {
		return err
	}
	m, err := newMenu(binset.MustJelly(20))
	if err != nil {
		return err
	}
	rec, err := terminalRecord(m, n)
	if err != nil {
		return err
	}
	for i := 1; i <= count; i++ {
		rec.ID = fmt.Sprintf("job-%d", i)
		if err := st.PutJob(rec); err != nil {
			return err
		}
	}
	return st.Close()
}

// terminalRecord builds the durable form of a finished n-task run job.
func terminalRecord(m *menu, n int) (store.JobRecord, error) {
	plan, err := newOracle(m).plan(hotThreshold, n)
	if err != nil {
		return store.JobRecord{}, err
	}
	sum, err := plan.Summarize(m.bins)
	if err != nil {
		return store.JobRecord{}, err
	}
	planJSON, err := json.Marshal(plan)
	if err != nil {
		return store.JobRecord{}, err
	}
	sumJSON, err := json.Marshal(service.NewPlanSummary(sum))
	if err != nil {
		return store.JobRecord{}, err
	}
	repJSON, err := json.Marshal(service.ExecutionReport{
		Platform: "remote", PlannedCost: sum.Cost, Spent: sum.Cost, BinsIssued: sum.NumUses,
		Tasks: n, CoveredTasks: n, TargetReliability: hotThreshold, MinDeliveredReliability: hotThreshold,
	})
	if err != nil {
		return store.JobRecord{}, err
	}
	now := time.Now()
	return store.JobRecord{
		Version: store.RecordVersion, ID: "job-0", Kind: service.KindRun, State: string(service.JobDone),
		Solver: service.DefaultSolverName, Submitted: now, Started: now, Finished: now,
		Summary: sumJSON, Plan: planJSON, Report: repJSON,
	}, nil
}
