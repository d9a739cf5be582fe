package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"repro/internal/binset"
	"repro/internal/core"
)

// decoded is what a bins-carrying route's decode step leaves its handler:
// the wire request without its bins, the validated menu or the error
// validating it gave — or, when the decode failed, the 400 it wrote.
type decoded struct {
	ok      bool
	req     any
	menu    core.BinSet
	menuErr error
}

// internedDecode runs decodeMenuBody and reads back what it left.
func internedDecode[P menuRequest](tbl *menuTable, w http.ResponseWriter, r *http.Request, req *P, wire *[]core.TaskBin) decoded {
	menu, ok := decodeMenuBody(w, r, tbl, req, wire)
	if !ok {
		return decoded{}
	}
	*wire = nil
	return decoded{ok: true, req: *req, menu: menu.set, menuErr: menu.err}
}

// plainDecode is the decode step before the menu table: decodeBody into
// the wire type, then core.NewBinSet over its bins.
func plainDecode[P any](w http.ResponseWriter, r *http.Request, plain *P, wire *[]core.TaskBin) decoded {
	if !decodeBody(w, r, plain) {
		return decoded{}
	}
	set, err := core.NewBinSet(*wire)
	*wire = nil
	return decoded{ok: true, req: *plain, menu: set, menuErr: err}
}

// parityRoutes decode a body both ways for each route that carries bins.
var parityRoutes = []struct {
	path     string
	interned func(*menuTable, http.ResponseWriter, *http.Request) decoded
	plain    func(http.ResponseWriter, *http.Request) decoded
}{
	{"/v1/decompose",
		func(tbl *menuTable, w http.ResponseWriter, r *http.Request) decoded {
			var p decomposeRequest
			return internedDecode(tbl, w, r, &p, &p.Bins)
		},
		func(w http.ResponseWriter, r *http.Request) decoded {
			var p decomposeRequest
			return plainDecode(w, r, &p, &p.Bins)
		}},
	{"/v1/decompose/batch",
		func(tbl *menuTable, w http.ResponseWriter, r *http.Request) decoded {
			var p batchDecomposeRequest
			return internedDecode(tbl, w, r, &p, &p.Bins)
		},
		func(w http.ResponseWriter, r *http.Request) decoded {
			var p batchDecomposeRequest
			return plainDecode(w, r, &p, &p.Bins)
		}},
	{"/v1/jobs",
		func(tbl *menuTable, w http.ResponseWriter, r *http.Request) decoded {
			var p jobRequest
			return internedDecode(tbl, w, r, &p, &p.Bins)
		},
		func(w http.ResponseWriter, r *http.Request) decoded {
			var p jobRequest
			return plainDecode(w, r, &p, &p.Bins)
		}},
	{"/v1/streams",
		func(tbl *menuTable, w http.ResponseWriter, r *http.Request) decoded {
			var p streamOpenRequest
			return internedDecode(tbl, w, r, &p, &p.Bins)
		},
		func(w http.ResponseWriter, r *http.Request) decoded {
			var p streamOpenRequest
			return plainDecode(w, r, &p, &p.Bins)
		}},
}

// checkParity fails t unless the body reader's decode left what the plain
// decode left: the same 400 status and text, or the same request with
// the same menu bit for bit (or the same validation error).
func checkParity(t *testing.T, label string, got, want decoded, gotRec, wantRec *httptest.ResponseRecorder) {
	t.Helper()
	if got.ok != want.ok || gotRec.Code != wantRec.Code || gotRec.Body.String() != wantRec.Body.String() {
		t.Fatalf("%s: interned ok=%v %d %s; plain ok=%v %d %s", label, got.ok, gotRec.Code, gotRec.Body, want.ok, wantRec.Code, wantRec.Body)
	}
	if !got.ok {
		return
	}
	if !reflect.DeepEqual(got.req, want.req) {
		t.Fatalf("%s: interned request %+v, plain %+v", label, got.req, want.req)
	}
	if fmt.Sprint(got.menuErr) != fmt.Sprint(want.menuErr) {
		t.Fatalf("%s: interned menu error %v, plain %v", label, got.menuErr, want.menuErr)
	}
	gb, wb := got.menu.Bins(), want.menu.Bins()
	if len(gb) != len(wb) {
		t.Fatalf("%s: interned menu %v, plain %v", label, gb, wb)
	}
	for i := range gb {
		if gb[i].Cardinality != wb[i].Cardinality ||
			math.Float64bits(gb[i].Confidence) != math.Float64bits(wb[i].Confidence) ||
			math.Float64bits(gb[i].Cost) != math.Float64bits(wb[i].Cost) {
			t.Fatalf("%s: interned menu %v, plain %v", label, gb, wb)
		}
	}
}

// FuzzDecodeParity holds the body reader's decode of every route that
// carries bins, through the menu table, to the plain decode, for any
// body, with the table cold (the body's menu not resident) and warm (the
// same body again, its menu now resident if it validated): the same
// request and menu on success, the same status and 400 text on failure.
func FuzzDecodeParity(f *testing.F) {
	// The menus of FuzzInstanceJSON's corpus, on every route. They start
	// resident, so a body whose menu shares most of its bytes with one of
	// them meets it in the table.
	corpus := []string{table1JSON, `[{"cardinality":1,"confidence":0.9,"cost":0.1}]`, `[]`}
	for _, menu := range corpus {
		f.Add(uint8(0), []byte(fmt.Sprintf(`{"bins":%s,"thresholds":[0.5,0.9]}`, menu)))
		f.Add(uint8(1), []byte(fmt.Sprintf(`{"bins":%s,"instances":[{"thresholds":[0.5]}]}`, menu)))
		f.Add(uint8(2), []byte(fmt.Sprintf(`{"bins":%s,"n":2,"threshold":0.5}`, menu)))
		f.Add(uint8(3), []byte(fmt.Sprintf(`{"bins":%s,"threshold":0.5}`, menu)))
	}
	// FuzzHandlerEdge's seeds, on their routes.
	for _, seed := range []struct {
		route int
		body  string
	}{
		{0, fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9,"include_plan":true}`, table1JSON)},
		{0, fmt.Sprintf(`{"bins":%s,"thresholds":[0.9,0.95,0.6,0.99],"include_plan":true,"solver":"opq-extended"}`, table1JSON)},
		{0, fmt.Sprintf(`{"bins":%s,"n":4,"threshold":0.95}`, table1JSON)},
		{1, fmt.Sprintf(`{"bins":%s,"instances":[{"n":12,"threshold":0.9},{"thresholds":[0.5,0.86]}]}`, table1JSON)},
		{2, fmt.Sprintf(`{"kind":"solve","bins":%s,"n":12,"threshold":0.9}`, table1JSON)},
		{2, fmt.Sprintf(`{"kind":"run","bins":%s,"n":24,"threshold":0.9,"run":{"platform":"jelly","seed":7,"positive_rate":0.5}}`, table1JSON)},
		{3, fmt.Sprintf(`{"bins":%s,"threshold":0.9}`, table1JSON)},
	} {
		f.Add(uint8(seed.route), []byte(seed.body))
	}
	// Bodies the reader hands to the plain decode: bins given twice (the
	// plain decode fills the second into the first's elements), a type
	// error ahead of a bad bin, an unknown field in a bin; and a menu that
	// fails core.NewBinSet, whose error both report.
	f.Add(uint8(0), []byte(`{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1}],"bins":[{"cardinality":2}],"n":2,"threshold":0.5}`))
	f.Add(uint8(2), []byte(fmt.Sprintf(`{"bins":%s,"n":5,"threshold":0.9}`, dupCardinalityJSON)))
	f.Add(uint8(0), []byte(`{"n":"5","bins":[{"cardinality":1,"confidence":0.9,"cost":"0.1"}],"threshold":0.9}`))
	f.Add(uint8(1), []byte(`{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1,"weight":2}],"instances":[{"n":5,"threshold":0.9}]}`))
	// One body per class the reader refuses, each of which the plain
	// decode accepts or rejects in its own way, and empty arrays, which
	// must leave empty slices where an absent field leaves nil.
	for _, seed := range []struct {
		route int
		rest  string // the fields after bins
	}{
		{0, `"n":2,"threshold":0.5,"solver":"op\u0071"`},
		{0, `"n":2,"threshold":0.5,"solver":"opé"`},
		{0, `"N":2,"threshold":0.5`},
		{2, `"n":2,"threshold":0.5,"kind":"solve","Kind":"run"`},
		{0, `"n":2,"n":3,"threshold":0.5`},
		{2, `"kind":"run","n":2,"threshold":0.5,"run":{"seed":1,"seed":2}`},
		{0, `"n":2,"threshold":null`},
		{2, `"kind":"run","n":2,"threshold":0.5,"run":null`},
		{0, `"n":1e3,"threshold":0.5`},
		{0, `"n":1.0,"threshold":0.5`},
		{0, `"n":-0,"threshold":0.5`},
		{0, `"n":01,"threshold":0.5`},
		{3, `"threshold":+0.5`},
		{0, `"n":2,"threshold":1e400`},
		{0, `"n":99999999999999999999,"threshold":0.5`},
		{0, `"thresholds":[]`},
		{1, `"instances":[]`},
		{1, `"instances":[{"thresholds":[]},{}]`},
		{2, `"kind":"run","n":2,"threshold":0.5,"run":{"truth":[]}`},
		{2, `"kind":"run","n":2,"threshold":0.5,"run":{"truth":[true,false],"top_up":false,"seed":-7}`},
	} {
		f.Add(uint8(seed.route), []byte(fmt.Sprintf(`{"bins":%s,%s}`, table1JSON, seed.rest)))
	}
	f.Add(uint8(0), []byte(fmt.Sprintf(" \n{\"bins\":%s,\"n\":2,\"threshold\":0.5}\t\r\n", table1JSON)))
	f.Add(uint8(0), []byte(fmt.Sprintf(`{"bins":%s,"n":2,"threshold":0.5}{}`, table1JSON)))
	f.Add(uint8(3), []byte(fmt.Sprintf(`{"bins":%s,"threshold":0.5} x`, table1JSON)))
	f.Add(uint8(0), []byte(`{"n":2,"threshold":0.5}`))
	f.Add(uint8(3), []byte(`{"bins":[{"cardinality":1,"confidence":0.9,"cost":0.1,"note":"\u00e9"}],"threshold":0.5}`))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		rt := parityRoutes[int(route)%len(parityRoutes)]
		wantRec := httptest.NewRecorder()
		want := rt.plain(wantRec, httptest.NewRequest("POST", rt.path, strings.NewReader(string(body))))
		tbl := newMenuTable(8)
		for _, menu := range corpus {
			var bins []core.TaskBin
			if err := json.Unmarshal([]byte(menu), &bins); err != nil {
				t.Fatal(err)
			}
			tbl.insert([]byte(menu), core.MustBinSet(bins))
		}
		for _, pass := range []string{"cold", "warm"} {
			gotRec := httptest.NewRecorder()
			got := rt.interned(tbl, gotRec, httptest.NewRequest("POST", rt.path, strings.NewReader(string(body))))
			checkParity(t, fmt.Sprintf("POST %s %q, table %s", rt.path, body, pass), got, want, gotRec, wantRec)
		}
	})
}

// TestReaderTakesLedgerBodies: the bodies the ledger sends on each of the
// four routes are read by the bodyReader, table cold and warm, so the
// plain decode never runs for them; a reader that refused everything would
// still pass FuzzDecodeParity. A body with an escaped string is the
// control: the plain decode reads it.
func TestReaderTakesLedgerBodies(t *testing.T) {
	menu, err := json.Marshal(binset.MustJelly(20).Bins())
	if err != nil {
		t.Fatal(err)
	}
	var batch strings.Builder
	fmt.Fprintf(&batch, `{"bins":%s,"instances":[`, menu)
	for i := range 64 {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, `{"n":%d,"threshold":0.9}`, 1000+313*i)
	}
	batch.WriteString(`]}`)
	for _, tc := range []struct {
		route int
		body  string
	}{
		{0, fmt.Sprintf(`{"bins":%s,"n":12345,"threshold":0.9}`, menu)},
		{0, fmt.Sprintf(`{"bins":%s,"n":300000,"threshold":0.9,"include_plan":true}`, menu)},
		{0, fmt.Sprintf(`{"bins":%s,"n":20000,"threshold":0.9943718592964824}`, menu)},
		{1, batch.String()},
		{2, fmt.Sprintf(`{"bins":%s,"n":20000,"threshold":0.9,"kind":"run","run":{"platform_kind":"remote","seed":734582367561}}`, menu)},
		{3, fmt.Sprintf(`{"bins":%s,"threshold":0.9}`, menu)},
	} {
		rt := parityRoutes[tc.route]
		wantRec := httptest.NewRecorder()
		want := rt.plain(wantRec, httptest.NewRequest("POST", rt.path, strings.NewReader(tc.body)))
		tbl := newMenuTable(8)
		for _, pass := range []string{"cold", "warm"} {
			gotRec := httptest.NewRecorder()
			got := rt.interned(tbl, gotRec, httptest.NewRequest("POST", rt.path, strings.NewReader(tc.body)))
			checkParity(t, fmt.Sprintf("POST %s %.80q, table %s", rt.path, tc.body, pass), got, want, gotRec, wantRec)
			if !got.ok || got.menuErr != nil {
				t.Fatalf("POST %s %.80q: ok=%v, menu error %v", rt.path, tc.body, got.ok, got.menuErr)
			}
		}
		if n := tbl.plain.Load(); n != 0 {
			t.Errorf("POST %s %.80q: decoded plainly %d times; want the reader to take it", rt.path, tc.body, n)
		}
	}
	tbl := newMenuTable(8)
	escaped := fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9,"solver":"op\u0071"}`, menu)
	parityRoutes[0].interned(tbl, httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/decompose", strings.NewReader(escaped)))
	if n := tbl.plain.Load(); n != 1 {
		t.Errorf("a body with an escaped string decoded plainly %d times; want once", n)
	}
}

// TestDecodeParityReadPaths holds the two reads decodeMenuBody streams
// to the plain decode: a body longer than its Content-Length said, and a
// read that fails partway.
func TestDecodeParityReadPaths(t *testing.T) {
	long := fmt.Sprintf(`{"bins":%s,"thresholds":[%s0.9]}`, table1JSON, strings.Repeat("0.5,", maxInternedBody/4))
	short := fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9}`, table1JSON)
	rt := parityRoutes[0]
	for _, tc := range []struct {
		name string
		req  func() *http.Request
	}{
		{"longer than said", func() *http.Request {
			r := httptest.NewRequest("POST", rt.path, strings.NewReader(long))
			r.ContentLength = 10
			return r
		}},
		{"read fails after the value", func() *http.Request {
			r := httptest.NewRequest("POST", rt.path, io.MultiReader(strings.NewReader(short), iotest.ErrReader(errors.New("connection reset"))))
			r.ContentLength = int64(len(short))
			return r
		}},
		{"read fails inside the value", func() *http.Request {
			r := httptest.NewRequest("POST", rt.path, io.MultiReader(strings.NewReader(short[:40]), iotest.ErrReader(errors.New("connection reset"))))
			r.ContentLength = int64(len(short))
			return r
		}},
	} {
		wantRec, gotRec := httptest.NewRecorder(), httptest.NewRecorder()
		want := rt.plain(wantRec, tc.req())
		got := rt.interned(newMenuTable(4), gotRec, tc.req())
		checkParity(t, tc.name, got, want, gotRec, wantRec)
	}
}

// TestReaderTakesFullBuffer: a body of exactly maxInternedBody bytes is
// read by the bodyReader, and one a byte longer by the plain decode.
func TestReaderTakesFullBuffer(t *testing.T) {
	value := fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9}`, table1JSON)
	rt := parityRoutes[0]
	for _, tc := range []struct {
		size  int
		plain int64
	}{{maxInternedBody, 0}, {maxInternedBody + 1, 1}} {
		body := value + strings.Repeat(" ", tc.size-len(value))
		wantRec, gotRec := httptest.NewRecorder(), httptest.NewRecorder()
		want := rt.plain(wantRec, httptest.NewRequest("POST", rt.path, strings.NewReader(body)))
		tbl := newMenuTable(4)
		got := rt.interned(tbl, gotRec, httptest.NewRequest("POST", rt.path, strings.NewReader(body)))
		checkParity(t, fmt.Sprintf("a %d-byte body", tc.size), got, want, gotRec, wantRec)
		if n := tbl.plain.Load(); n != tc.plain {
			t.Errorf("a %d-byte body decoded plainly %d times; want %d", tc.size, n, tc.plain)
		}
	}
}

// TestMenuTableBounds sends more distinct menus than the table holds and
// one over its byte cap, checking both bounds after every request; then
// a whitespace variant and a reordered variant of a resident menu answer
// with the original's summary.
func TestMenuTableBounds(t *testing.T) {
	const size = 4
	svc := New(Config{CacheSize: size, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	defer svc.Close()
	h := NewHandler(svc)
	decompose := func(menu string) decomposeResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/decompose", strings.NewReader(fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9}`, menu))))
		if rec.Code != http.StatusOK {
			t.Fatalf("menu %.60q: status %d: %s", menu, rec.Code, rec.Body)
		}
		svc.menus.mu.Lock()
		defer svc.menus.mu.Unlock()
		if len(svc.menus.sets) > size {
			t.Fatalf("%d menus resident, over the table's %d", len(svc.menus.sets), size)
		}
		for k := range svc.menus.sets {
			if len(k) > maxMenuBytes {
				t.Fatalf("a %d-byte menu is resident, over the %d-byte cap", len(k), maxMenuBytes)
			}
		}
		var resp decomposeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := range 3 * size {
		decompose(fmt.Sprintf(`[{"cardinality":1,"confidence":0.9,"cost":%d},{"cardinality":2,"confidence":0.85,"cost":1}]`, i+1))
	}
	decompose(`[` + strings.Repeat(" ", maxMenuBytes) + `{"cardinality":1,"confidence":0.9,"cost":0.1}]`)

	orig := decompose(table1JSON)
	// A menu that differs from the resident one only in its last bytes
	// answers with its own summary, the one a service without it gives.
	later := strings.Replace(table1JSON, "0.24", "0.12", 1)
	other := New(Config{CacheSize: size, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	defer other.Close()
	rec := httptest.NewRecorder()
	NewHandler(other).ServeHTTP(rec, httptest.NewRequest("POST", "/v1/decompose", strings.NewReader(fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9}`, later))))
	var own decomposeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &own); err != nil {
		t.Fatal(err)
	}
	if got := decompose(later); !reflect.DeepEqual(got.Summary, own.Summary) || reflect.DeepEqual(got.Summary, orig.Summary) {
		t.Errorf("menu %q: summary %+v, want its own %+v (the resident menu's is %+v)", later, got.Summary, own.Summary, orig.Summary)
	}
	for _, variant := range []string{
		strings.ReplaceAll(table1JSON, ",", " , "),
		`[{"cardinality":3,"confidence":0.8,"cost":0.24},{"cardinality":1,"confidence":0.9,"cost":0.1},{"cardinality":2,"confidence":0.85,"cost":0.18}]`,
	} {
		if got := decompose(variant); !reflect.DeepEqual(got.Summary, orig.Summary) {
			t.Errorf("menu %q: summary %+v, the original's %+v", variant, got.Summary, orig.Summary)
		}
	}
}

// TestMenuTableConcurrent serves six menus from eight goroutines through
// a table that holds four, so lookups, inserts and evictions race; run it
// under -race. Every reply must carry its own menu's summary.
func TestMenuTableConcurrent(t *testing.T) {
	menus := make([]string, 6)
	for i := range menus {
		menus[i] = fmt.Sprintf(`[{"cardinality":1,"confidence":0.9,"cost":%d},{"cardinality":2,"confidence":0.85,"cost":1}]`, i+1)
	}
	summary := func(h http.Handler, menu string) (core.Summary, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/decompose", strings.NewReader(fmt.Sprintf(`{"bins":%s,"n":12,"threshold":0.9}`, menu))))
		var resp decomposeResponse
		if rec.Code != http.StatusOK {
			return core.Summary{}, fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		err := json.Unmarshal(rec.Body.Bytes(), &resp)
		return resp.Summary, err
	}
	ref := New(Config{CacheSize: 8, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	defer ref.Close()
	want := make([]core.Summary, len(menus))
	for i, m := range menus {
		var err error
		if want[i], err = summary(NewHandler(ref), m); err != nil {
			t.Fatal(err)
		}
	}
	svc := New(Config{CacheSize: 4, Workers: 2, Slog: slog.New(slog.DiscardHandler)})
	defer svc.Close()
	h := NewHandler(svc)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 20 {
				i := (g + k) % len(menus)
				got, err := summary(h, menus[i])
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("menu %d: summary %+v (%v), want %+v", i, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
