package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// encodeViaStream runs the streaming encoder into a buffer.
func encodeViaStream(t testing.TB, p *Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.EncodeJSON(&buf); err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	return buf.Bytes()
}

// assertEncodeMatchesMarshal pins the streaming encoder (and MarshalJSON,
// which delegates to it) to the reference: encoding/json over the
// materialized uses.
func assertEncodeMatchesMarshal(t testing.TB, p *Plan) {
	t.Helper()
	want, err := json.Marshal(struct {
		Uses []BinUse `json:"uses"`
	}{p.Materialized()})
	if err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	if got := encodeViaStream(t, p); !bytes.Equal(got, want) {
		t.Fatalf("EncodeJSON differs from encoding/json:\n got %s\nwant %s", got, want)
	}
	if got, err := json.Marshal(p); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON differs from encoding/json (err %v):\n got %s\nwant %s", err, got, want)
	}
}

func TestEncodeJSONMatchesMarshal(t *testing.T) {
	pr := testRuns()
	cases := map[string]*Plan{
		"run-backed":       NewRunPlan(pr),
		"from-uses":        planOf(expand(t, pr)...),
		"negative-tasks":   planOf(BinUse{Cardinality: 2, Tasks: []int{7, -3}}),
		"empty-run":        NewRunPlan(&PlanRuns{}),
		"empty-legacy-nil": {}, // the zero Plan, what a use-list solver returns for n = 0
		"from-no-uses":     planOf(),
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) { assertEncodeMatchesMarshal(t, p) })
	}
}

func TestEncodeJSONRandomizedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(8)) // fixed seed: the test must be deterministic
	for i := 0; i < 200; i++ {
		pr := randomRuns(r)
		assertEncodeMatchesMarshal(t, NewRunPlan(pr))
		uses := expand(t, pr)
		assertPlanIsUses(t, planOf(uses...), uses)
	}
}

// assertNDJSONMatchesMarshal pins EncodeUsesNDJSON to the reference: one
// line per materialized use, each the standalone json.Marshal of that use.
func assertNDJSONMatchesMarshal(t testing.TB, p *Plan) {
	t.Helper()
	var want bytes.Buffer
	for _, u := range p.Materialized() {
		line, err := json.Marshal(u)
		if err != nil {
			t.Fatalf("reference marshal: %v", err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	var got bytes.Buffer
	if err := p.EncodeUsesNDJSON(&got); err != nil {
		t.Fatalf("EncodeUsesNDJSON: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("EncodeUsesNDJSON differs from encoding/json per line:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

func TestEncodeUsesNDJSON(t *testing.T) {
	assertNDJSONMatchesMarshal(t, NewRunPlan(testRuns()))
	// An empty plan writes nothing at all.
	var buf bytes.Buffer
	if err := NewRunPlan(&PlanRuns{}).EncodeUsesNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty plan NDJSON wrote %q", buf.String())
	}
}

// TestEncodeSequentialIDsAcrossDigitBoundaries drives the decimal counter
// (identity arena, any use over consecutive ids of a hundred and up) over
// every carry it has: ids gaining a digit, the two-digit low part wrapping
// inside a use — twice in the 250-wide one — and past everything it must
// leave to the slot loop: ids below a hundred or below zero, a use too
// wide for the chunk, and a padded run whose last use wraps (its other
// uses are consecutive and counted).
func TestEncodeSequentialIDsAcrossDigitBoundaries(t *testing.T) {
	runs, n := layOut(
		BlockRun{Comb: oneBin(13), Blocks: 9},
		BlockRun{Comb: oneBin(250), Blocks: 2},
		BlockRun{Comb: oneBin(5000), Blocks: 1},
		BlockRun{Comb: testComb(), Blocks: 3},
		BlockRun{Comb: testComb(), Blocks: 0, Len: 4},
	)
	for _, base := range []int{0, 5, 95, 995, 99_995, 999_999_995, fuzzIDRange - 7, -5, -1000} {
		t.Run(strconv.Itoa(base), func(t *testing.T) {
			p := NewRunPlan(&PlanRuns{Base: base, N: n, Runs: runs})
			assertEncodeMatchesMarshal(t, p)
			assertNDJSONMatchesMarshal(t, p)
		})
	}
}

// failAfter fails the Write that takes it past n bytes, simulating a client
// that disconnects mid-stream, and counts the Writes that arrive after.
type failAfter struct {
	n, written int
	failed     bool
	late       int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed {
		f.late++
		return 0, errShortWrite
	}
	f.written += len(p)
	if f.written > f.n {
		f.failed = true
		return 0, errShortWrite
	}
	return len(p), nil
}

var errShortWrite = errors.New("writer failed")

// TestEncodeJSONPropagatesWriterError: the chunk's error is sticky. On
// either arena form and through every entry point, whichever Write of a
// plan several chunks long fails — between two uses or inside one too wide
// for the chunk — the encoder reports the writer's error and sends nothing
// after it: a disconnected client must not have the rest of the plan
// rendered at it.
func TestEncodeJSONPropagatesWriterError(t *testing.T) {
	runs, n := layOut(BlockRun{Comb: oneBin(13), Blocks: 2000}, BlockRun{Comb: oneBin(20_000), Blocks: 1})
	ident := &PlanRuns{Base: 1_000_000, N: n, Runs: runs}
	for arena, pr := range map[string]*PlanRuns{"identity": ident, "explicit": explicitOf(ident)} {
		p := NewRunPlan(pr)
		for name, enc := range map[string]func(io.Writer) error{
			"EncodeJSON": p.EncodeJSON, "EncodeUses": p.EncodeUses, "EncodeUsesNDJSON": p.EncodeUsesNDJSON,
		} {
			var whole bytes.Buffer
			if err := enc(&whole); err != nil || whole.Len() < 8*encodeBufSize {
				t.Fatalf("%s/%s: %d bytes, err %v; want several chunks", arena, name, whole.Len(), err)
			}
			// Every Write in turn is the one that fails, the last included.
			for limit := 0; limit < whole.Len(); limit += encodeBufSize / 2 {
				w := &failAfter{n: limit}
				if err := enc(w); !errors.Is(err, errShortWrite) {
					t.Errorf("%s/%s failing after %d bytes: err %v, want the writer's", arena, name, limit, err)
				}
				if w.late != 0 {
					t.Errorf("%s/%s failing after %d bytes: %d Writes arrived after the failed one", arena, name, limit, w.late)
				}
			}
		}
	}
}

// oneBin is the combination that puts each task in one bin of the given
// cardinality.
func oneBin(card int) *RunComb {
	return &RunComb{Parts: []RunPart{{Cardinality: card, Count: 1}}, BlockLen: card}
}

// layOut places runs one after another over an arena from slot 0, filling
// in Off (and Len, for full runs), and returns them with the slot count.
func layOut(runs ...BlockRun) ([]BlockRun, int) {
	n := 0
	for i := range runs {
		r := &runs[i]
		r.Off = n
		if !r.Padded() {
			r.Len = r.Blocks * r.Comb.BlockLen
		}
		n += r.Len
	}
	return runs, n
}

// bigPlanRuns is the shape of the ledger's big-plan workload: a homogeneous
// solve's identity-arena plan, 13-wide full blocks over tasks 0..n-1 and a
// padded run over the remainder.
func bigPlanRuns(n int) *PlanRuns {
	runs, _ := layOut(BlockRun{Comb: oneBin(13), Blocks: n / 13}, BlockRun{Comb: oneBin(13), Blocks: 0, Len: n % 13})
	return &PlanRuns{N: n, Runs: runs}
}

// randomRuns builds a structurally valid random run plan: several runs of
// random combinations, full and padded, over one sequential arena.
func randomRuns(r *rand.Rand) *PlanRuns {
	// 120: one use can span a hundreds boundary of the ids.
	blockLens := []int{2, 3, 4, 6, 12, 120}
	nRuns := r.Intn(5)
	pr := &PlanRuns{}
	next := 0
	for i := 0; i < nRuns; i++ {
		L := blockLens[r.Intn(len(blockLens))]
		var parts []RunPart
		for card := 1; card <= L; card++ {
			if L%card != 0 {
				continue
			}
			if r.Intn(3) == 0 {
				parts = append(parts, RunPart{Cardinality: card, Count: 1 + r.Intn(2)})
			}
		}
		if len(parts) == 0 {
			parts = []RunPart{{Cardinality: L, Count: 1}}
		}
		comb := &RunComb{Parts: parts, BlockLen: L}
		var run BlockRun
		if L > 1 && r.Intn(3) == 0 { // padded remainder run
			rem := 1 + r.Intn(L-1)
			run = BlockRun{Comb: comb, Blocks: 0, Off: next, Len: rem}
			next += rem
		} else {
			blocks := 1 + r.Intn(3)
			run = BlockRun{Comb: comb, Blocks: blocks, Off: next, Len: blocks * L}
			next += blocks * L
		}
		pr.Runs = append(pr.Runs, run)
	}
	pr.Arena = make([]int, next)
	for i := range pr.Arena {
		pr.Arena[i] = i
	}
	return pr
}

// fuzzIDRange keeps fuzzed bases and offsets far from integer overflow.
const fuzzIDRange = 1 << 40

// FuzzEncodeJSONEquivalence: a random run plan streams the bytes
// encoding/json writes, and — the arena axis — the same runs over the ids
// base..base+n-1 behave identically whether that arena is explicit or
// identity, offset by delta or not (see assertArenaParity).
func FuzzEncodeJSONEquivalence(f *testing.F) {
	f.Add(int64(1), 0, 0)
	f.Add(int64(42), 1000, -1000)
	f.Add(int64(-7), -3, 5)
	for i, base := range []int{0, 5, 95, 995, 99_995, 999_999_995, fuzzIDRange - 7, -5, -1000} {
		f.Add(int64(i), base, 100-base)
	}
	f.Fuzz(func(t *testing.T, seed int64, base, delta int) {
		pr := randomRuns(rand.New(rand.NewSource(seed)))
		assertEncodeMatchesMarshal(t, NewRunPlan(pr))
		assertArenaParity(t, pr.Runs, len(pr.Arena), base%fuzzIDRange, delta%fuzzIDRange)
	})
}

func BenchmarkEncodeJSONStream(b *testing.B) {
	pr := randomRuns(rand.New(rand.NewSource(3)))
	plan := NewRunPlan(pr)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := plan.EncodeJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeJSONBigPlan is the per-layer number behind the ledger's
// big-plan workload: its plan (n = 300,000, 13-wide blocks) encoded to
// io.Discard from an identity arena, from an explicit one, and as NDJSON.
func BenchmarkEncodeJSONBigPlan(b *testing.B) {
	ident := bigPlanRuns(300_000)
	for _, c := range []struct {
		name string
		enc  func(io.Writer) error
	}{
		{"identity", NewRunPlan(ident).EncodeJSON},
		{"explicit", NewRunPlan(explicitOf(ident)).EncodeJSON},
		{"ndjson", NewRunPlan(ident).EncodeUsesNDJSON},
	} {
		b.Run(c.name, func(b *testing.B) {
			var body bytes.Buffer
			if err := c.enc(&body); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(body.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.enc(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// encodeAllocBudget fails the gate if streaming a million-task plan
// allocates more than this. The chunk measures 32 KiB; 512 KiB allows GC
// bookkeeping noise while still catching any O(assignments)
// materialization sneaking back into the encoder (the materialized form of
// this plan is tens of MiB).
const encodeAllocBudget = 512 << 10

// TestEncodeJSONMillionTaskAllocBudget is the O(runs) plan-encoding gate:
// bytes out grow with the task count, allocations must not — on an
// explicit arena and on the identity arena every homogeneous request
// encodes from.
func TestEncodeJSONMillionTaskAllocBudget(t *testing.T) {
	const n = 1_000_000
	comb := &RunComb{Parts: []RunPart{{Cardinality: 4, Count: 2}, {Cardinality: 12, Count: 1}}, BlockLen: 12}
	blocks := n / comb.BlockLen
	ident := &PlanRuns{N: n, Runs: []BlockRun{
		{Comb: comb, Blocks: blocks, Off: 0, Len: blocks * comb.BlockLen},
		{Comb: comb, Blocks: 0, Off: blocks * comb.BlockLen, Len: n - blocks*comb.BlockLen},
	}}
	for arena, pr := range map[string]*PlanRuns{"explicit": explicitOf(ident), "identity": ident} {
		plan := NewRunPlan(pr)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := plan.EncodeJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > encodeAllocBudget {
			t.Errorf("encoding a %d-task plan (%s arena) allocated %d KiB; budget is %d KiB — the encoder is materializing instead of streaming",
				n, arena, got>>10, encodeAllocBudget>>10)
		}
	}
}
