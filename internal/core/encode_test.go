package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
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

func TestEncodeUsesNDJSON(t *testing.T) {
	plan := NewRunPlan(testRuns())
	var buf bytes.Buffer
	if err := plan.EncodeUsesNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	uses := plan.Materialized()
	if len(lines) != len(uses) {
		t.Fatalf("NDJSON has %d lines, plan has %d uses", len(lines), len(uses))
	}
	for i, u := range uses {
		want, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		if lines[i] != string(want) {
			t.Fatalf("line %d: %s != %s", i, lines[i], want)
		}
	}
	// An empty plan writes nothing at all.
	buf.Reset()
	if err := NewRunPlan(&PlanRuns{}).EncodeUsesNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty plan NDJSON wrote %q", buf.String())
	}
}

// failAfter errors once n bytes have been written, simulating a client
// that disconnects mid-stream.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.written += len(p)
	if f.written > f.n {
		return 0, errShortWrite
	}
	return len(p), nil
}

var errShortWrite = errors.New("writer failed")

func TestEncodeJSONPropagatesWriterError(t *testing.T) {
	pr := randomRuns(rand.New(rand.NewSource(99)))
	if err := NewRunPlan(pr).EncodeJSON(&failAfter{n: 64}); err == nil {
		t.Fatal("EncodeJSON swallowed the writer error")
	}
	if err := NewRunPlan(pr).EncodeUsesNDJSON(&failAfter{n: 64}); err == nil {
		t.Fatal("EncodeUsesNDJSON swallowed the writer error")
	}
}

// randomRuns builds a structurally valid random run plan: several runs of
// random combinations, full and padded, over one sequential arena.
func randomRuns(r *rand.Rand) *PlanRuns {
	blockLens := []int{2, 3, 4, 6, 12}
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

// encodeAllocBudget fails the gate if streaming a million-task plan
// allocates more than this. The bufio chunk plus number scratch measure
// ~33 KiB; 512 KiB allows GC bookkeeping noise while still catching any
// O(assignments) materialization sneaking back into the encoder (the
// materialized form of this plan is tens of MiB).
const encodeAllocBudget = 512 << 10

// TestEncodeJSONMillionTaskAllocBudget is the O(runs) plan-encoding gate:
// bytes out grow with the task count, allocations must not.
func TestEncodeJSONMillionTaskAllocBudget(t *testing.T) {
	const n = 1_000_000
	comb := &RunComb{Parts: []RunPart{{Cardinality: 4, Count: 2}, {Cardinality: 12, Count: 1}}, BlockLen: 12}
	blocks := n / comb.BlockLen
	pr := &PlanRuns{Arena: make([]int, n), Runs: []BlockRun{
		{Comb: comb, Blocks: blocks, Off: 0, Len: blocks * comb.BlockLen},
		{Comb: comb, Blocks: 0, Off: blocks * comb.BlockLen, Len: n - blocks*comb.BlockLen},
	}}
	for i := range pr.Arena {
		pr.Arena[i] = i
	}
	plan := NewRunPlan(pr)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := plan.EncodeJSON(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > encodeAllocBudget {
		t.Errorf("encoding a %d-task plan allocated %d KiB; budget is %d KiB — the encoder is materializing instead of streaming",
			n, got>>10, encodeAllocBudget>>10)
	}
}
