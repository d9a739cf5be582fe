package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/core"
)

// A requester brings one menu of bins and asks for decompositions at many
// (n, t), so a warm request resends bytes the service has already decoded
// and validated. The four routes that carry bins decode the field through
// internedBins, which finds those bytes in the service's menuTable; only
// a miss decodes and validates them. docs/ARCHITECTURE.md § Menu table.

// maxMenuBytes bounds the wire bytes of a menu the table keeps: a larger
// menu is decoded and validated on every request, so hostile menus cannot
// grow resident state past Config.CacheSize entries of this size.
const maxMenuBytes = 8 << 10

// maxInternedBody bounds the bodies decoded through the table. A body
// whose Content-Length is larger or unknown is decoded by decodeBody, as
// it streams: the table's path keeps a copy of the body to decode again on
// failure, which would double a large body's peak memory.
const maxInternedBody = 16 << 10

// bodyBufs is the free list of body copies, a leaky buffer like core's
// encode chunks: at most cap(bodyBufs) idle buffers (128 KiB) stay
// resident, enough for eight decodes at once without a fresh buffer.
// Taking one never blocks, and one given back to a full list is left to
// the garbage collector.
var bodyBufs = make(chan []byte, 8)

// menuTable maps a menu's wire bytes to its validated core.BinSet. The map
// is keyed by the bytes themselves, so a hit is byte equality with a menu
// that decoded and validated. It holds at most max menus, each at most
// maxMenuBytes long; inserting into a full table evicts an arbitrary one.
// Safe for concurrent use.
type menuTable struct {
	mu   sync.Mutex
	max  int
	sets map[string]core.BinSet
}

// newMenuTable returns an empty table of the given capacity
// (DefaultCacheSize when capacity <= 0).
func newMenuTable(capacity int) *menuTable {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &menuTable{max: capacity, sets: make(map[string]core.BinSet)}
}

// lookup returns the menu raw spells, if resident. Indexing by
// string(raw) does not copy raw.
func (t *menuTable) lookup(raw []byte) (core.BinSet, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	bins, ok := t.sets[string(raw)]
	return bins, ok
}

// insert keeps bins under a copy of raw, unless raw is over maxMenuBytes.
func (t *menuTable) insert(raw []byte, bins core.BinSet) {
	if len(raw) > maxMenuBytes {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.sets[string(raw)]; ok {
		return
	}
	if len(t.sets) >= t.max {
		for k := range t.sets {
			delete(t.sets, k)
			break
		}
	}
	t.sets[string(raw)] = bins
}

// errRepeatedBins fails the interning decode of a body that names its bins
// twice: a plain decode fills the second array into the first's elements,
// so a field the second omits keeps the first's value, and only the plain
// decode itself reproduces that.
var errRepeatedBins = errors.New("service: bins given twice")

// internedBins is a request's bins field decoded through a menuTable. After
// decodeMenuBody, set is the validated menu, or err is what validating it
// gave, which the handler reports at the point it checks the menu. The
// first decode clears table, so a nil table marks bins already decoded.
type internedBins struct {
	table *menuTable
	set   core.BinSet
	err   error
}

// UnmarshalJSON resolves raw through the table. A miss is decoded as the
// plain wire types decode bins (unknown fields refused) and validated by
// core.NewBinSet; only a menu that passes both is inserted. Any failure
// fails the decode, and decodeMenuBody then decodes the body plainly.
func (b *internedBins) UnmarshalJSON(raw []byte) error {
	table := b.table
	if table == nil {
		return errRepeatedBins
	}
	b.table = nil
	if set, ok := table.lookup(raw); ok {
		b.set = set
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bins []core.TaskBin
	if err := dec.Decode(&bins); err != nil {
		return err
	}
	set, err := core.NewBinSet(bins)
	if err != nil {
		return err
	}
	table.insert(raw, set)
	b.set = set
	return nil
}

// The interning twins of the wire types that carry bins. Each embeds its
// wire type, whose own bins field its Bins shadows (a shallower field
// wins), so a twin accepts exactly the wire type's keys.
type (
	decomposeBody struct {
		Bins internedBins `json:"bins"`
		decomposeRequest
	}
	batchBody struct {
		Bins internedBins `json:"bins"`
		batchDecomposeRequest
	}
	jobBody struct {
		Bins internedBins `json:"bins"`
		jobRequest
	}
	streamOpenBody struct {
		Bins internedBins `json:"bins"`
		streamOpenRequest
	}
)

// decodeMenuBody decodes r's body into body, a twin whose Bins field is m
// and whose embedded wire type is *plain, with plain's own bins field at
// wire. It accepts and rejects exactly what decodeBody(w, r, plain) does,
// with the same 400 text. A body over maxInternedBody, or of unknown
// length, is decoded by decodeBody. A smaller one is read into a buffer
// from bodyBufs and decoded into body; if that fails — a menu that does
// not decode or validate, bins given twice, any error elsewhere — the
// buffer is decoded again into plain, so an error names the wire types,
// and on success m holds core.NewBinSet over what plain decoded.
func decodeMenuBody[P any](w http.ResponseWriter, r *http.Request, body any, m *internedBins, plain *P, wire *[]core.TaskBin) bool {
	plainly := func(rd io.Reader) bool {
		if !decodeFrom(w, rd, plain) {
			return false
		}
		m.set, m.err = core.NewBinSet(*wire)
		return true
	}
	if r.ContentLength < 0 || r.ContentLength > maxInternedBody {
		return plainly(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	}
	var buf []byte
	select {
	case buf = <-bodyBufs:
	default:
		buf = make([]byte, maxInternedBody)
	}
	defer func() {
		select {
		case bodyBufs <- buf:
		default:
		}
	}()
	n, err := readBody(r.Body, buf)
	switch {
	case err == nil:
		// The body is longer than it said: decode it as it streams, with
		// the bytes already read in front.
		return plainly(io.MultiReader(bytes.NewReader(buf[:n]), http.MaxBytesReader(w, r.Body, MaxRequestBytes-int64(n))))
	case err != io.EOF:
		// Its read failed: replay the error after the bytes before it.
		return plainly(io.MultiReader(bytes.NewReader(buf[:n]), errReader{err}))
	}
	if decodeValue(bytes.NewReader(buf[:n]), body) == nil {
		return true
	}
	*plain = *new(P)
	return plainly(bytes.NewReader(buf[:n]))
}

// readBody reads rd into buf until rd ends or buf is full. It returns
// io.EOF when rd ended, nil when buf filled first, and any other error
// as rd gave it.
func readBody(rd io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := rd.Read(buf[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeFrom is decodeBody over rd: it writes the 400 itself on failure.
func decodeFrom(w http.ResponseWriter, rd io.Reader, dst any) bool {
	if err := decodeValue(rd, dst); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// decodeValue decodes one JSON value — optionally followed by whitespace,
// and with no field dst lacks — from rd into dst.
func decodeValue(rd io.Reader, dst any) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	return err
}
