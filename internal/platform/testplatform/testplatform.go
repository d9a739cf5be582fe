// Package testplatform is an in-process mock crowd marketplace for
// exercising the platform client: a real-socket HTTP server backed by
// seeded crowdsim that commits each idempotency key exactly once, keeps
// the ledger tests reconcile against, and can be killed outright or
// mid-run. It mirrors cluster/testcluster: no *testing.T in the core API,
// so the benchmark module drives the same harness outside a test binary.
// Per-request network faults (pre-commit 500s, truncated bodies, dropped
// responses) are injected on the client side with internal/faultinject.
//
// Determinism is the point. The crowd simulation draws from its seeded
// RNG only when a bin commits — exactly once per idempotency key, in
// arrival order. Under the executor's sequential issuing this makes the
// commit sequence of a faulted run identical to a fault-free run with the
// same crowd seed: same outcomes, same charges, byte-identical execution
// reports. That identity is what the chaos acceptance test pins.
package testplatform

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/crowdsim"
)

// Options configures a Server.
type Options struct {
	// Seed drives the crowd simulation (default 1).
	Seed int64
	// Model selects the crowd model: "jelly" (default) or "smic".
	Model string
	// Auth, when non-empty, is the exact Authorization header value
	// required on every request (others get 401).
	Auth string
}

// binRecord is one committed purchase: the response replayed for every
// re-issue of its idempotency key.
type binRecord struct {
	resp []byte
	pay  float64
}

// Server is the mock marketplace. Create with New, stop with Close.
type Server struct {
	hs *httptest.Server

	mu        sync.Mutex
	sim       *crowdsim.Platform
	auth      string
	committed map[string]binRecord
	charged   float64
	commits   uint64
	replays   uint64
	requests  uint64
	down      bool
	killAfter int // requests to serve before going down; 0 = disabled
}

// New starts the marketplace on a real loopback socket.
func New(opts Options) (*Server, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	var params crowdsim.Params
	switch opts.Model {
	case "", "jelly":
		params = crowdsim.Jelly()
	case "smic":
		params = crowdsim.SMIC()
	default:
		return nil, fmt.Errorf("testplatform: unknown model %q (have jelly, smic)", opts.Model)
	}
	s := &Server{
		sim:       crowdsim.New(params, seed),
		auth:      opts.Auth,
		committed: make(map[string]binRecord),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/bins", s.handleBin)
	s.hs = httptest.NewServer(mux)
	return s, nil
}

// URL returns the marketplace base URL.
func (s *Server) URL() string { return s.hs.URL }

// Close shuts the server down.
func (s *Server) Close() { s.hs.Close() }

// Kill makes the server abort every subsequent connection — "platform
// fully down" as the client experiences it (the socket still accepts,
// the marketplace never answers).
func (s *Server) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = true
}

// Revive undoes Kill.
func (s *Server) Revive() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = false
	s.killAfter = 0
}

// KillAfter lets the next n requests through, then goes down — for
// degradation tests that want a run to die mid-plan.
func (s *Server) KillAfter(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.killAfter = n
}

// Charged returns the total pay committed — the marketplace-side ledger
// the chaos test reconciles against the execution report's Spent.
func (s *Server) Charged() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.charged
}

// Commits returns the number of distinct bins committed (idempotency
// keys charged exactly once).
func (s *Server) Commits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits
}

// Replays returns the number of requests served from a committed record
// instead of a fresh charge.
func (s *Server) Replays() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replays
}

// Requests returns the total requests that reached the handler.
func (s *Server) Requests() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

func (s *Server) handleBin(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.requests++
	if s.down {
		s.mu.Unlock()
		panic(http.ErrAbortHandler)
	}
	if s.killAfter > 0 {
		s.killAfter--
		if s.killAfter == 0 {
			s.down = true
		}
	}
	if s.auth != "" && r.Header.Get("Authorization") != s.auth {
		s.mu.Unlock()
		http.Error(w, "unauthorized", http.StatusUnauthorized)
		return
	}
	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		s.mu.Unlock()
		http.Error(w, "missing Idempotency-Key", http.StatusBadRequest)
		return
	}
	var req struct {
		Cardinality int     `json:"cardinality"`
		Pay         float64 `json:"pay"`
		Difficulty  int     `json:"difficulty"`
		Truth       []bool  `json:"truth"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Cardinality <= 0 || len(req.Truth) > req.Cardinality {
		s.mu.Unlock()
		http.Error(w, "malformed bin request", http.StatusBadRequest)
		return
	}

	rec, replay := s.committed[key]
	if replay {
		s.replays++
	} else {
		// Commit: the crowd works the bin and the money moves, exactly
		// once per key — whatever happens to the response on the wire.
		out := s.sim.RunBin(req.Cardinality, req.Pay, req.Difficulty, req.Truth)
		body, err := json.Marshal(struct {
			Answers    []bool  `json:"answers"`
			Correct    []bool  `json:"correct"`
			DurationMS float64 `json:"duration_ms"`
			Overtime   bool    `json:"overtime"`
		}{out.Answers, out.Correct, float64(out.Duration) / float64(time.Millisecond), out.Overtime})
		if err != nil {
			s.mu.Unlock()
			http.Error(w, "encode outcome", http.StatusInternalServerError)
			return
		}
		rec = binRecord{resp: body, pay: req.Pay}
		s.committed[key] = rec
		s.charged += req.Pay
		s.commits++
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	if replay {
		w.Header().Set("X-Idempotent-Replay", "true")
	}
	w.Write(rec.resp) //nolint:errcheck
}
