package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
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

// TestEncodeSequentialIDsAcrossDigitBoundaries drives the page of ids
// (identity arena, any use over consecutive ids of a hundred and up) over
// every move it makes: ids gaining a digit; carries of one to six prefix
// digits inside a 13-wide use (…199→200 up to …19,999,999→20,000,000);
// uses of 150, 250, 4,000 and 5,000 ids, which cross several hundreds —
// the last wider than the chunk; a padded run that goes back to its
// window's start after a later hundred, and one whose wrapped use leaves
// the page two hundreds behind the next run. Past everything it must leave to
// the slot loop too: ids below a hundred or below zero, and wrapped
// padded uses. Then two plans of different Base, encoded back to back on
// one goroutine through both entry points, must not see each other's
// page or head.
func TestEncodeSequentialIDsAcrossDigitBoundaries(t *testing.T) {
	jump := &RunComb{Parts: []RunPart{{Cardinality: 200, Count: 1}}, BlockLen: 400}
	back := &RunComb{Parts: []RunPart{{Cardinality: 200, Count: 1}, {Cardinality: 400, Count: 1}}, BlockLen: 400}
	runs, n := layOut(
		BlockRun{Comb: oneBin(13), Blocks: 9},
		BlockRun{Comb: oneBin(150), Blocks: 2},
		BlockRun{Comb: oneBin(250), Blocks: 2},
		BlockRun{Comb: oneBin(4000), Blocks: 1},
		BlockRun{Comb: oneBin(5000), Blocks: 1},
		BlockRun{Comb: back, Blocks: 0, Len: 399},
		BlockRun{Comb: jump, Blocks: 0, Len: 399},
		BlockRun{Comb: oneBin(13), Blocks: 2},
		BlockRun{Comb: testComb(), Blocks: 3},
		BlockRun{Comb: testComb(), Blocks: 0, Len: 4},
	)
	plan := func(base int) *Plan { return NewRunPlan(&PlanRuns{Base: base, N: n, Runs: runs}) }
	for _, base := range []int{
		0, 5, 95, 995, 99_995, 999_999_995, fuzzIDRange - 7, -5, -1000,
		194, 1994, 19_994, 199_994, 1_999_994, 19_999_994, // carries of 1–6 digits
		9_994, 999_994, // a digit gained mid-use
	} {
		t.Run(strconv.Itoa(base), func(t *testing.T) {
			assertEncodeMatchesMarshal(t, plan(base))
			assertNDJSONMatchesMarshal(t, plan(base))
		})
	}
	t.Run("back-to-back", func(t *testing.T) {
		for range 2 {
			for _, base := range []int{1_999_994, 99_995} {
				assertNDJSONMatchesMarshal(t, plan(base))
				assertEncodeMatchesMarshal(t, plan(base))
			}
		}
	})
}

// TestEncodeBigPlanMatchesMarshal: the ledger's big-plan body, and the
// same plan moved so its ids cross 10⁶ inside a use, stream
// encoding/json's bytes as JSON and as NDJSON.
func TestEncodeBigPlanMatchesMarshal(t *testing.T) {
	moved := bigPlanRuns(300_000)
	moved.Base = 850_003 // 10⁶ is 149,997 = 13·11,538 + 3 ids in: inside a use
	for name, pr := range map[string]*PlanRuns{"ledger": bigPlanRuns(300_000), "across-a-million": moved} {
		t.Run(name, func(t *testing.T) {
			p := NewRunPlan(pr)
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
	for i, base := range []int{
		0, 5, 95, 995, 99_995, 999_999_995, fuzzIDRange - 7, -5, -1000,
		194, 1994, 19_994, 199_994, 1_999_994, 19_999_994, 9_994, 999_994,
	} {
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
// io.Discard from an identity arena, from an explicit one, and as NDJSON;
// wide is the same tasks in 4,000-wide uses from an identity arena.
func BenchmarkEncodeJSONBigPlan(b *testing.B) {
	ident := bigPlanRuns(300_000)
	wide, _ := layOut(BlockRun{Comb: oneBin(4000), Blocks: 75})
	for _, c := range []struct {
		name string
		enc  func(io.Writer) error
	}{
		{"identity", NewRunPlan(ident).EncodeJSON},
		{"explicit", NewRunPlan(explicitOf(ident)).EncodeJSON},
		{"ndjson", NewRunPlan(ident).EncodeUsesNDJSON},
		{"wide", NewRunPlan(&PlanRuns{N: 300_000, Runs: wide}).EncodeJSON},
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

// TestEncodeJSONMillionTaskAllocBudget is the O(1) plan-encoding gate:
// bytes out grow with the task count, allocations must not. Once one
// encode has left its chunk on the free list, every entry point streams a
// million-task plan and the ledger's big-plan body, each from an identity
// arena and from an explicit one, to io.Discard with no allocation at all.
// At commit a08cf0b, whose encoders made their chunk per call, every row
// read 1 allocation and 32,768 B per encode; any O(assignments)
// materialization (tens of MiB for the million-task plan) trips it too.
func TestEncodeJSONMillionTaskAllocBudget(t *testing.T) {
	const n = 1_000_000
	comb := &RunComb{Parts: []RunPart{{Cardinality: 4, Count: 2}, {Cardinality: 12, Count: 1}}, BlockLen: 12}
	blocks := n / comb.BlockLen
	million := &PlanRuns{N: n, Runs: []BlockRun{
		{Comb: comb, Blocks: blocks, Off: 0, Len: blocks * comb.BlockLen},
		{Comb: comb, Blocks: 0, Off: blocks * comb.BlockLen, Len: n - blocks*comb.BlockLen},
	}}
	bigPlan := bigPlanRuns(300_000)
	for _, c := range []struct {
		name string
		pr   *PlanRuns
	}{
		{"million/identity", million}, {"million/explicit", explicitOf(million)},
		{"big-plan/identity", bigPlan}, {"big-plan/explicit", explicitOf(bigPlan)},
	} {
		p := NewRunPlan(c.pr)
		for _, e := range []struct {
			name string
			enc  func(io.Writer) error
		}{{"EncodeJSON", p.EncodeJSON}, {"EncodeUses", p.EncodeUses}, {"EncodeUsesNDJSON", p.EncodeUsesNDJSON}} {
			allocs, allocBytes := encodeAllocs(t, e.enc)
			t.Logf("%s %s: %d allocs/op, %d B/op", c.name, e.name, allocs, allocBytes)
			if allocs != 0 || allocBytes != 0 {
				t.Errorf("%s %s: %d allocs and %d B per warm encode; budget is 0 and 0", c.name, e.name, allocs, allocBytes)
			}
		}
	}
}

// encodeAllocs counts the allocations and bytes of one encode to
// io.Discard after a warm-up encode, at GOMAXPROCS 1 as
// testing.AllocsPerRun counts: the encoders are deterministic, so one
// encode reads what any would.
func encodeAllocs(t *testing.T, enc func(io.Writer) error) (allocs, allocBytes uint64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	if err := enc(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	err := enc(io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// prefixWriter keeps what it is written up to limit bytes and fails the
// Write that would pass it, and every Write after: a client that
// disconnects mid-plan, keeping what it read.
type prefixWriter struct {
	got    bytes.Buffer
	limit  int
	failed bool
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	if w.failed || w.got.Len()+len(p) > w.limit {
		w.failed = true
		return 0, errShortWrite
	}
	return w.got.Write(p)
}

// wantEncodings is every entry point's reference bytes, from encoding/json
// over the materialized uses.
func wantEncodings(t testing.TB, p *Plan) map[string][]byte {
	t.Helper()
	uses := p.Materialized()
	js, err := json.Marshal(struct {
		Uses []BinUse `json:"uses"`
	}{uses})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := json.Marshal(uses)
	if err != nil {
		t.Fatal(err)
	}
	var nd bytes.Buffer
	for _, u := range uses {
		line, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		nd.Write(line)
		nd.WriteByte('\n')
	}
	return map[string][]byte{"EncodeJSON": js, "MarshalJSON": js, "EncodeUses": arr, "EncodeUsesNDJSON": nd.Bytes()}
}

// chunkyRuns is a random plan several chunks long: wide full runs, the
// occasional use too wide for the chunk and a padded tail, over ids from
// a random base, on an identity or an explicit arena.
func chunkyRuns(r *rand.Rand) *PlanRuns {
	runs := []BlockRun{
		{Comb: oneBin(1 + r.Intn(20)), Blocks: r.Intn(800)},
		{Comb: testComb(), Blocks: r.Intn(300)},
	}
	if r.Intn(4) == 0 {
		runs = append(runs, BlockRun{Comb: oneBin(5000), Blocks: 1})
	}
	runs = append(runs, BlockRun{Comb: testComb(), Blocks: 0, Len: 1 + r.Intn(5)})
	runs, n := layOut(runs...)
	pr := &PlanRuns{Base: r.Intn(2_000_000) - 1000, N: n, Runs: runs}
	if r.Intn(2) == 0 {
		return explicitOf(pr)
	}
	return pr
}

// TestEncodeChunkReuseConcurrent: chunks pass between encodes on four
// times as many goroutines as the free list holds, through every entry
// point, and between encodes whose writer fails mid-plan and encodes that
// finish. Every finished encode writes exactly encoding/json's bytes and
// every failed one a prefix of them, so a chunk given back — after an
// error too — carries nothing into the encode that takes it next.
func TestEncodeChunkReuseConcurrent(t *testing.T) {
	goroutines, rounds := 4*cap(freeChunks), 8
	if testing.Short() {
		rounds = 3
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for range rounds {
				var pr *PlanRuns
				if r.Intn(3) == 0 {
					pr = randomRuns(r)
				} else {
					pr = chunkyRuns(r)
				}
				p := NewRunPlan(pr)
				for entry, want := range wantEncodings(t, p) {
					if entry == "MarshalJSON" {
						if got, err := p.MarshalJSON(); err != nil || !bytes.Equal(got, want) {
							t.Errorf("goroutine %d: MarshalJSON differs from encoding/json (err %v)", g, err)
						}
						continue
					}
					enc := map[string]func(io.Writer) error{
						"EncodeJSON": p.EncodeJSON, "EncodeUses": p.EncodeUses, "EncodeUsesNDJSON": p.EncodeUsesNDJSON,
					}[entry]
					// Half the encodes fail somewhere inside the plan.
					w := &prefixWriter{limit: len(want)}
					if r.Intn(2) == 0 {
						w.limit = r.Intn(len(want) + 1)
					}
					err := enc(w)
					switch {
					case w.limit == len(want) && (err != nil || !bytes.Equal(w.got.Bytes(), want)):
						t.Errorf("goroutine %d: %s differs from encoding/json (err %v)", g, entry, err)
					case w.limit < len(want) && !errors.Is(err, errShortWrite):
						t.Errorf("goroutine %d: %s failing after %d of %d bytes: err %v, want the writer's", g, entry, w.limit, len(want), err)
					case !bytes.HasPrefix(want, w.got.Bytes()):
						t.Errorf("goroutine %d: %s wrote bytes that are not a prefix of encoding/json's", g, entry)
					}
				}
			}
		}()
	}
	wg.Wait()
}
