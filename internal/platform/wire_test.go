package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crowdsim"
	"repro/internal/executor"
)

// binRequest is the bin issue as encoding/json writes it — the shape
// appendBinRequest must reproduce byte for byte.
type binRequest struct {
	Cardinality int     `json:"cardinality"`
	Pay         float64 `json:"pay"`
	Difficulty  int     `json:"difficulty"`
	Truth       []bool  `json:"truth"`
}

// FuzzBinWire pins the hand-rolled request encoding to json.Marshal for
// any cardinality, difficulty, truth vector (nil, empty or long) and
// finite pay, including the exponent forms below 1e-6 and from 1e21 on,
// and holds it within the size binRequestSize preallocates.
func FuzzBinWire(f *testing.F) {
	f.Add(3, 2, 0.25, []byte{1, 0, 1}, false)
	f.Add(1, 0, 0.0, []byte{}, false)
	f.Add(0, 0, math.Copysign(0, -1), []byte{}, true)
	f.Add(20, 7, 1e-7, []byte{0}, false)
	f.Add(20, 7, 9.999999e-7, []byte{1}, false)
	f.Add(20, 7, 1e-6, []byte{1}, false)
	f.Add(5, -3, 1e21, []byte{1, 1}, false)
	f.Add(5, -3, -1e21, []byte{0, 0}, false)
	f.Add(5, 1, 999999999999999900000.0, []byte{0}, false)
	f.Add(math.MaxInt64, math.MinInt64, -1.2345678901234567e-308, bytes.Repeat([]byte{0}, 300), false)
	f.Add(2, 1, -0.0000012345678901234567, []byte{1, 0}, false)
	f.Add(4, 2, math.MaxFloat64, []byte{}, true)
	f.Fuzz(func(t *testing.T, cardinality, difficulty int, pay float64, truthBits []byte, nilTruth bool) {
		if math.IsInf(pay, 0) || math.IsNaN(pay) {
			return // json.Marshal refuses these; RunBinContext rejects them before encoding
		}
		var truth []bool
		if !nilTruth {
			truth = make([]bool, len(truthBits))
			for i, b := range truthBits {
				truth[i] = b&1 == 1
			}
		}
		want, err := json.Marshal(binRequest{Cardinality: cardinality, Pay: pay, Difficulty: difficulty, Truth: truth})
		if err != nil {
			t.Fatal(err)
		}
		got := appendBinRequest(nil, cardinality, pay, difficulty, truth)
		if !bytes.Equal(got, want) {
			t.Fatalf("wire bytes differ from json.Marshal:\n got %s\nwant %s", got, want)
		}
		if len(got) > binRequestSize(len(truth)) {
			t.Fatalf("%d bytes encoded, %d preallocated", len(got), binRequestSize(len(truth)))
		}
	})
}

// TestRunBinRejectsNonFinitePay: a pay json.Marshal would refuse ends the
// bin before any attempt.
func TestRunBinRejectsNonFinitePay(t *testing.T) {
	rt := newCanned(http.StatusOK, nil, []byte(`{}`))
	r := cannedClient(t, rt).Runner()
	for _, pay := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := r.RunBinContext(context.Background(), executor.BinContext{RunID: "nan"}, 1, pay, 1, nil)
		if err == nil || !strings.Contains(err.Error(), "unsupported pay") {
			t.Fatalf("pay %v: err = %v", pay, err)
		}
	}
	if rt.calls != 0 {
		t.Fatalf("%d requests sent for unencodable bins", rt.calls)
	}
}

// cannedTransport answers every request with the same response and
// allocates nothing doing so, so an allocation count over it is the
// client's alone. Not safe for concurrent use.
type cannedTransport struct {
	resp   http.Response
	body   []byte
	reader bytes.Reader
	rc     io.ReadCloser
	calls  int
}

func newCanned(status int, header http.Header, body []byte) *cannedTransport {
	rt := &cannedTransport{body: body}
	rt.rc = io.NopCloser(&rt.reader)
	rt.resp = http.Response{StatusCode: status, Header: header}
	return rt
}

func (rt *cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.calls++
	req.Body.Close()
	rt.reader.Reset(rt.body)
	rt.resp.Body = rt.rc
	rt.resp.Request = req
	return &rt.resp, nil
}

func cannedClient(t testing.TB, rt http.RoundTripper) *Client {
	t.Helper()
	c, err := NewClient(Config{BaseURL: "http://market.invalid", Transport: rt})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// parentDecode is how the client read a 200 body before it read into
// its own buffer: one json.Decoder over at most maxBinBody bytes, which
// stops after the first JSON value and never looks at what follows.
func parentDecode(body []byte, tasks int) (crowdsim.BinOutcome, error) {
	var wire binResponse
	if err := json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxBinBody)).Decode(&wire); err != nil {
		return crowdsim.BinOutcome{}, err
	}
	if len(wire.Answers) != tasks || len(wire.Correct) != tasks {
		return crowdsim.BinOutcome{}, errors.New("answer count")
	}
	return crowdsim.BinOutcome{
		Answers:  wire.Answers,
		Correct:  wire.Correct,
		Duration: time.Duration(wire.DurationMS * float64(time.Millisecond)),
		Overtime: wire.Overtime,
	}, nil
}

// TestBinResponseParity holds the response decoder to the parent's on
// every body a marketplace or a broken wire can produce: each gives the
// parent's outcome or a retryable error, and the bodies the new decoder
// is stricter about — it reads the whole body, where the parent's
// decoder stopped after the first object — are named here.
func TestBinResponseParity(t *testing.T) {
	const canonical = `{"answers":[true,false,true],"correct":[true,true,false],"duration_ms":1234.5,"overtime":true}`
	type tc struct {
		name     string
		body     string
		tasks    int
		stricter bool // the parent accepted it; the new decoder retries
	}
	cases := []tc{
		{name: "canonical", body: canonical, tasks: 3},
		{name: "reordered fields", body: `{"overtime":true,"duration_ms":1234.5,"correct":[true,true,false],"answers":[true,false,true]}`, tasks: 3},
		{name: "unknown fields", body: `{"worker":"w-7","answers":[true,false,true],"meta":{"a":[1,{"b":null}]},"correct":[true,true,false],"duration_ms":1234.5,"overtime":true,"x":1e300}`, tasks: 3},
		{name: "whitespace", body: " \n\t{ \"answers\" : [ true ,false, true ]\r\n, \"correct\":[true,true,false] ,\"duration_ms\": 1234.5 , \"overtime\" : true }\n ", tasks: 3},
		{name: "case-folded keys", body: `{"ANSWERS":[true,false,true],"Correct":[true,true,false],"Duration_MS":1234.5,"OverTime":true}`, tasks: 3},
		{name: "duplicate key, last wins", body: `{"answers":[false],"answers":[true,false,true],"correct":[true,true,false],"duration_ms":1,"overtime":false}`, tasks: 3},
		{name: "null arrays, empty bin", body: `{"answers":null,"correct":null,"duration_ms":2,"overtime":false}`, tasks: 0},
		{name: "null arrays, full bin", body: `{"answers":null,"correct":null,"duration_ms":2,"overtime":false}`, tasks: 3},
		{name: "empty arrays, empty bin", body: `{"answers":[],"correct":[],"duration_ms":0,"overtime":false}`, tasks: 0},
		{name: "missing arrays, empty bin", body: `{"duration_ms":3}`, tasks: 0},
		{name: "missing arrays, full bin", body: `{"duration_ms":3}`, tasks: 3},
		{name: "too many answers", body: `{"answers":[true,false,true,true],"correct":[true,true,false],"duration_ms":1,"overtime":false}`, tasks: 3},
		{name: "too few answers", body: `{"answers":[true,false],"correct":[true,true,false],"duration_ms":1,"overtime":false}`, tasks: 3},
		{name: "wrong type", body: `{"answers":"yes","correct":[true,true,false],"duration_ms":1,"overtime":false}`, tasks: 3},
		{name: "not an object", body: `[true,false,true]`, tasks: 3},
		{name: "empty body", body: ``, tasks: 0},
		{name: "trailing whitespace", body: canonical + "\n\n", tasks: 3},
		{name: "trailing garbage", body: canonical + `garbage`, tasks: 3, stricter: true},
		{name: "second object", body: canonical + `{"answers":[]}`, tasks: 3, stricter: true},
		{name: "padded past maxBinBody", body: canonical + strings.Repeat(" ", maxBinBody+1-len(canonical)), tasks: 3, stricter: true},
		{name: "object past maxBinBody", body: `{"answers":[true,false,true],"correct":[true,true,false],` + strings.Repeat(" ", maxBinBody) + `"duration_ms":1}`, tasks: 3},
	}
	for i := range len(canonical) {
		cases = append(cases, tc{name: fmt.Sprintf("truncated at %d", i), body: canonical[:i], tasks: 3})
	}

	for _, c := range cases {
		rt := newCanned(http.StatusOK, http.Header{}, []byte(c.body))
		r := cannedClient(t, rt).Runner()
		body := appendBinRequest(nil, max(c.tasks, 1), 0.1, 1, make([]bool, c.tasks))
		got, _, retryable, err := r.post(context.Background(), "k:0:0", body, c.tasks)
		want, perr := parentDecode([]byte(c.body), c.tasks)
		switch {
		case err == nil && perr != nil:
			t.Errorf("%s: accepted a body the parent rejected (%v)", c.name, perr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Errorf("%s: outcome %+v, parent %+v", c.name, got, want)
		case err != nil && !retryable:
			t.Errorf("%s: permanent error %v — a 200 committed, so it must stay retryable", c.name, err)
		case err != nil && perr == nil && !c.stricter:
			t.Errorf("%s: rejected (%v) a body the parent accepted", c.name, err)
		case err == nil && c.stricter:
			t.Errorf("%s: accepted, but the case says the new decoder is stricter", c.name)
		}
	}
}

// TestRedirectIsPermanentRejection: the client calls its transport
// directly, so a 3xx is never followed — it ends the run like any other
// definitive rejection, naming the status, and spends no retry.
func TestRedirectIsPermanentRejection(t *testing.T) {
	var moved atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/bins", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/v2/bins", http.StatusPermanentRedirect)
	})
	mux.HandleFunc("/v2/bins", func(w http.ResponseWriter, r *http.Request) { moved.Add(1) })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := hardenedClient(t, srv.URL, nil)
	_, err := c.Runner().RunBinContext(context.Background(), executor.BinContext{RunID: "moved"}, 1, 0.1, 1, []bool{true})
	if err == nil || !strings.Contains(err.Error(), "rejected: HTTP 308") {
		t.Fatalf("err = %v, want a permanent rejection naming HTTP 308", err)
	}
	if st := c.Stats(); st.Attempts != 1 || st.Retries != 0 {
		t.Fatalf("attempts=%d retries=%d, want 1 and 0", st.Attempts, st.Retries)
	}
	if moved.Load() != 0 {
		t.Fatal("the redirect was followed")
	}
}

// TestRunBinAllocBudget is the clock-free gate on one bin hop's client
// side: Runner.RunBinContext over a transport that answers from memory,
// so every allocation counted is the client's — the request, its
// headers and body, the attempt's timeout context and the decoded
// answers. 20 allocations and 1,601 B measured; the budget is that plus
// 15 %. http.Client.Do's header clone, a URL parse or a json.Decoder
// per attempt each put it over.
func TestRunBinAllocBudget(t *testing.T) {
	const (
		maxAllocs = 23
		maxBytes  = 1840
	)
	truth := []bool{true, false, false, true}
	rt := newCanned(http.StatusOK, http.Header{"Content-Type": {"application/json"}},
		[]byte(`{"answers":[true,false,false,false],"correct":[true,true,true,false],"duration_ms":1523.25,"overtime":false}`))
	r := cannedClient(t, rt).Runner()
	ctx := context.Background()
	bin := 0
	hop := func() {
		bin++
		if _, err := r.RunBinContext(ctx, executor.BinContext{RunID: "job-17", Bin: bin}, 4, 0.25, 2, truth); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, hop)
	const n = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		hop()
	}
	runtime.ReadMemStats(&after)
	perHop := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("one bin hop, client side: %.0f allocs, %.0f B", allocs, perHop)
	if allocs > maxAllocs || perHop > maxBytes {
		t.Fatalf("one bin hop allocates %.0f objects / %.0f B; budget %d / %d B", allocs, perHop, maxAllocs, maxBytes)
	}
}

// TestConcurrentRunnersReuseConnections: run jobs share one Client and,
// by default, one transport. Eight of them issuing at once must not
// re-dial the marketplace: every connection a bin finishes with waits,
// idle, for the next (net/http's default keeps 2 per host and closes
// the rest). The runners go in lockstep rounds — one bin each, then
// they wait for one another — so every round ends with all eight
// connections idle at once, and a transport that keeps fewer closes the
// surplus for the next round to re-dial. The marketplace holds the first
// round until all eight requests are in, so each runner dials exactly
// one connection: a late starter would otherwise take an early
// finisher's idle one, and the dial that raced it could still be
// landing when the next round looks for idle connections.
func TestConcurrentRunnersReuseConnections(t *testing.T) {
	const runners, bins = 8, 50
	var dials, arrived atomic.Int64
	firstRound := make(chan struct{})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := arrived.Add(1); n <= runners {
			if n == runners {
				close(firstRound)
			}
			<-firstRound
		}
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"answers":[true,false],"correct":[true,true],"duration_ms":1,"overtime":false}`) //nolint:errcheck
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c, err := NewClient(Config{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]*Runner, runners)
	for i := range rs {
		rs[i] = c.Runner()
	}
	for b := range bins {
		var wg sync.WaitGroup
		errs := make([]error, runners)
		for i, r := range rs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bc := executor.BinContext{RunID: fmt.Sprintf("run-%d", i), Bin: b}
				_, errs[i] = r.RunBinContext(context.Background(), bc, 2, 0.1, 1, []bool{true, false})
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n > runners {
		t.Fatalf("%d runners issuing %d bins each dialled %d connections, want at most %d", runners, bins, n, runners)
	}
}
