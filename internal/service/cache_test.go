package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/binset"
	"repro/internal/core"
	"repro/internal/opq"
)

// coldMenuSweep draws one threshold per cell of [0.99, 0.999] and shuffles
// them, the way the ledger's cold-menu workload does.
func coldMenuSweep() []float64 {
	rng := rand.New(rand.NewSource(1))
	ts := make([]float64, 320)
	for i := range ts {
		ts[i] = 0.99 + 0.009*(float64(i)+rng.Float64())/float64(len(ts))
	}
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return ts
}

// TestCachePieceSweep is the clock-free gate on caching queues by piece:
// cold-menu's 320 distinct SMIC-20 thresholds fit the default 128-entry
// cache, because nearby thresholds share a piece. The first pass builds
// each piece it meets and evicts nothing; the second pass only hits, and a
// hit allocates nothing. Keyed by the threshold's bits, the same sweep built
// 320 queues and evicted 192 per pass.
func TestCachePieceSweep(t *testing.T) {
	menu := binset.MustSMIC(20)
	ts := coldMenuSweep()
	c := NewOPQCache(DefaultCacheSize)
	for _, th := range ts {
		if _, err := c.Get(menu, th); err != nil {
			t.Fatal(err)
		}
	}
	first := c.Stats()
	t.Logf("pass 1: %d builds, %d entries, %d evictions, %d hits", first.Builds, first.Entries, first.Evictions, first.Hits)
	if first.Entries > DefaultCacheSize || first.Evictions != 0 {
		t.Errorf("pass 1: %d entries and %d evictions, want ≤ %d and 0", first.Entries, first.Evictions, DefaultCacheSize)
	}

	// MemStats are process-wide and another goroutine's allocation only
	// adds, so the hits' count is the least over up to five more passes.
	allocs := uint64(math.MaxUint64)
	for pass := 0; pass < 5 && allocs > 0; pass++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, th := range ts {
			if _, err := c.Get(menu, th); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	second := c.Stats()
	builds, misses := second.Builds-first.Builds, second.Misses-first.Misses
	t.Logf("pass 2 on: %d builds, %d misses, %.2f allocs per Get", builds, misses, float64(allocs)/float64(len(ts)))
	if builds != 0 || misses != 0 {
		t.Errorf("pass 2: %d builds and %d misses, want 0", builds, misses)
	}
	if !raceBuild && allocs != 0 {
		t.Errorf("pass 2: %d allocations over %d hits, want 0", allocs, len(ts))
	}

	// Every answer is the queue Build returns for that threshold.
	for _, th := range ts[:40] {
		got, _ := c.Get(menu, th)
		want, err := opq.Build(menu, th)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(queueBytes(t, got, 5000), queueBytes(t, want, 5000)) {
			t.Fatalf("t = %v: the cached piece plans differently from a fresh build", th)
		}
	}
}

// queueBytes is the wire form of the plan a queue gives n tasks, with its
// cost: what a caller can observe of which queue served it.
func queueBytes(t *testing.T, q *opq.Queue, n int) []byte {
	t.Helper()
	p, err := opq.SolveRunsRange(q, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := p.Cost(q.Bins())
	if err != nil {
		t.Fatal(err)
	}
	return append(encodePlan(t, p), fmt.Sprintf(" cost %v", cost)...)
}

// TestCacheZeroThresholdNeverShared: a solve over a queue built at t = 0
// plans nothing, and the queue keeps the threshold that built it, so the
// t = 0 queue must never answer a t > 0 nor the reverse — in either order
// on one cache.
func TestCacheZeroThresholdNeverShared(t *testing.T) {
	menu := binset.Table1()
	const n = 12
	for _, order := range [][]float64{{0, 1e-9}, {1e-9, 0}} {
		c := NewOPQCache(8)
		for _, th := range order {
			got, err := c.Get(menu, th)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := opq.Build(menu, th)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(queueBytes(t, got, n), queueBytes(t, fresh, n)) {
				t.Errorf("order %v, t = %v: cached plan %s, fresh %s", order, th, queueBytes(t, got, n), queueBytes(t, fresh, n))
			}
			if p, _ := opq.SolveRunsRange(got, 0, n); th > 0 && p.NumUses() == 0 {
				t.Errorf("order %v, t = %v: empty plan", order, th)
			}
		}
		// The repeat hits: t = 0 has its exact entry, t > 0 its piece.
		st := c.Stats()
		for _, th := range order {
			if _, err := c.Get(menu, th); err != nil {
				t.Fatal(err)
			}
		}
		if again := c.Stats(); again.Builds != st.Builds {
			t.Errorf("order %v: repeating both thresholds built %d more queues", order, again.Builds-st.Builds)
		}
	}
}

// TestDecomposeZeroThenPositiveThreshold is the HTTP twin of
// TestCacheZeroThresholdNeverShared: t = 0 then t = 1e-6 on one service
// answer exactly what a fresh service answers for each.
func TestDecomposeZeroThenPositiveThreshold(t *testing.T) {
	serve := func() string {
		svc := New(Config{Slog: slog.New(slog.DiscardHandler)})
		t.Cleanup(func() { svc.Close() })
		ts := httptest.NewServer(NewHandler(svc))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	decompose := func(base string, th float64) map[string]any {
		t.Helper()
		resp, body := postJSON(t, base+"/v1/decompose",
			fmt.Sprintf(`{"bins":%s,"n":12,"threshold":%v,"include_plan":true}`, table1JSON, th))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("t = %v: status %d: %s", th, resp.StatusCode, body)
		}
		var out map[string]any
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		delete(out, "elapsed_ms")
		return out
	}
	shared := serve()
	for _, th := range []float64{0, 1e-6} {
		got, want := decompose(shared, th), decompose(serve(), th)
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("t = %v after the t = 0 request: %s, a fresh service says %s", th, g, w)
		}
		if plan, _ := got["plan"].([]any); th > 0 && len(plan) == 0 {
			t.Errorf("t = %v: empty plan %s", th, g)
		}
	}
}

// TestCacheSharesPieceAcrossThresholds: a threshold whose need lies in a
// resident piece is a hit on that piece, whichever threshold built it. On
// Table 1, 0.86 lies below 0.9's piece but builds the same queue, so its
// build widens that piece instead of adding an entry.
func TestCacheSharesPieceAcrossThresholds(t *testing.T) {
	menu := binset.Table1()
	_, piece, err := opq.BuildPiece(menu, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	inside := core.ThresholdFromTheta((piece.Lo+piece.Hi)/2 + core.RelTol)
	if !piece.Contains(opq.Need(inside)) || inside == 0.9 || piece.Contains(opq.Need(0.86)) {
		t.Fatalf("piece %+v: %v must fall inside it and 0.86 outside", piece, inside)
	}
	c := NewOPQCache(8)
	for _, th := range []float64{0.9, inside} {
		if _, err := c.Get(menu, th); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Builds != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("after 0.9 and %v: %+v, want 1 build, 1 hit, 1 entry", inside, st)
	}

	got, err := c.Get(menu, 0.86)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := opq.Build(menu, 0.9)
	if !bytes.Equal(queueBytes(t, got, 12), queueBytes(t, fresh, 12)) {
		t.Fatal("0.86 no longer builds 0.9's queue on Table 1")
	}
	if _, err := c.Get(menu, 0.86); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Builds != 2 || st.Entries != 1 || st.Hits != 2 {
		t.Errorf("0.86's build must widen 0.9's piece, which then serves 0.86: %+v", st)
	}
}

// TestCacheKeysByMenu: the cache tells menus apart by their bins alone. A
// menu rebuilt from the same bins in another order hits the resident
// piece; a menu one cost-ulp away builds its own.
func TestCacheKeysByMenu(t *testing.T) {
	bins := binset.Table1().Bins()
	c := NewOPQCache(8)
	if _, err := c.Get(core.MustBinSet(bins), 0.9); err != nil {
		t.Fatal(err)
	}
	permuted := []core.TaskBin{bins[2], bins[0], bins[1]}
	if _, err := c.Get(core.MustBinSet(permuted), 0.9); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Builds != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("permuted bins: %+v, want 1 build, 1 hit, 1 entry", st)
	}
	bins[1].Cost = math.Nextafter(bins[1].Cost, 1)
	got, err := c.Get(core.MustBinSet(bins), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Builds != 2 || st.Hits != 1 || st.Entries != 2 {
		t.Fatalf("a cost one ulp up: %+v, want 2 builds, 1 hit, 2 entries", st)
	}
	if got.Bins().At(1).Cost != bins[1].Cost {
		t.Errorf("the nudged menu got a queue over cost %v, want %v", got.Bins().At(1).Cost, bins[1].Cost)
	}
}
