package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// A requester brings one menu of bins and asks for decompositions at many
// (n, t), so a warm request resends bytes the service has already decoded
// and validated. The four routes that carry bins read their bodies with a
// bodyReader, which finds those bytes in the service's menuTable; only a
// miss decodes and validates them. docs/ARCHITECTURE.md § Menu table.

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
// the garbage collector. A buffer is a byte longer than maxInternedBody,
// so a body that fills it is longer than any it takes.
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
	// plain counts the bodies decodeMenuBody decoded plainly: too long
	// for the buffer, or refused by the reader.
	plain atomic.Int64
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

// decodedMenu is the menu a bins-carrying request named: the validated
// set, or what validating it gave, which the handler reports at the point
// it checks the menu.
type decodedMenu struct {
	set core.BinSet
	err error
}

// instance builds the core.Instance over the decoded menu, or reports
// what validating the menu gave.
func (m decodedMenu) instance(sh *instanceShape) (*core.Instance, error) {
	if m.err != nil {
		return nil, m.err
	}
	return sh.build(m.set, MaxTasks)
}

// menuRequest is a wire type that carries bins.
type menuRequest interface {
	decomposeRequest | batchDecomposeRequest | jobRequest | streamOpenRequest
}

// decodeMenuBody decodes r's body into req, whose own bins field is wire,
// and returns the menu it named. It accepts and rejects exactly what
// decodeBody(w, r, req) does, with the same 400 text. A body over
// maxInternedBody, or of unknown length, is decoded by decodeBody. A
// smaller one is read into a buffer from bodyBufs and read by a
// bodyReader, which leaves wire nil; if the reader refuses it — anything
// outside its subset, a menu that does not decode — the buffer is
// decoded plainly, so an error names the wire types, and on success the
// menu is core.NewBinSet over what the plain decode left in wire.
func decodeMenuBody[P menuRequest](w http.ResponseWriter, r *http.Request, table *menuTable, req *P, wire *[]core.TaskBin) (decodedMenu, bool) {
	plainly := func(rd io.Reader) (decodedMenu, bool) {
		table.plain.Add(1)
		// A fresh value, not req: the reader may have filled part of req,
		// and req stays off the heap when only the reader writes it.
		p := new(P)
		if !decodeFrom(w, rd, p) {
			return decodedMenu{}, false
		}
		*req = *p
		set, err := core.NewBinSet(*wire)
		return decodedMenu{set, err}, true
	}
	if r.ContentLength < 0 || r.ContentLength > maxInternedBody {
		return plainly(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	}
	var buf []byte
	select {
	case buf = <-bodyBufs:
	default:
		buf = make([]byte, maxInternedBody+1)
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
	d := bodyReader{b: buf[:n], table: table}
	if d.request(req) {
		return d.menu, true
	}
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
// A batch body passes through a memberCounter on its way to the decoder.
func decodeFrom(w http.ResponseWriter, rd io.Reader, dst any) bool {
	if _, ok := dst.(*batchDecomposeRequest); ok {
		rd = &memberCounter{r: rd}
	}
	if err := decodeValue(rd, dst); err != nil {
		if !errors.Is(err, errTooManyInstances) {
			err = fmt.Errorf("decoding request: %w", err)
		}
		writeErr(w, http.StatusBadRequest, err)
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

// errTooManyInstances is the 400 of a batch body with more than
// MaxBatchInstances members.
var errTooManyInstances = fmt.Errorf("too many instances: a batch may carry at most %d", MaxBatchInstances)

// memberCounter passes a batch body through to the JSON decoder, counting
// the members of each top-level "instances" array as they go by, and fails
// the read at the first byte of member MaxBatchInstances+1. The decoder
// reads a whole value before it decodes any of it, so no member has been
// allocated by then, and the bytes before that one have been handed on,
// so a syntax error among them is still the decoder's to report. The key
// is matched as encoding/json matches it: unescaped, and case-folded.
type memberCounter struct {
	r   io.Reader
	err error

	depth    int    // nesting depth of the byte being read
	str, esc bool   // inside a string; after a backslash in it
	key      []byte // the last top-level string, cut past maxKeyBytes
	named    bool   // the last top-level key was instances
	counting bool   // inside an instances array
	next     bool   // the next value in it is a new member
	members  int
}

func (c *memberCounter) Read(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.r.Read(p)
	for i, b := range p[:n] {
		if c.step(b) {
			c.err = errTooManyInstances
			return i + 1, nil
		}
	}
	return n, err
}

// maxKeyBytes bounds the bytes of a top-level string kept as a possible
// key: instances, each letter escaped as \uXXXX, takes 54.
const maxKeyBytes = 64

// step reads one byte and reports whether it starts a member past the
// bound.
func (c *memberCounter) step(b byte) bool {
	if c.str {
		switch {
		case c.esc:
			c.esc = false
		case b == '\\':
			c.esc = true
		case b == '"':
			c.str = false
			return false
		}
		if c.depth == 1 && len(c.key) <= maxKeyBytes {
			c.key = append(c.key, b)
		}
		return false
	}
	if b == ' ' || b == '\t' || b == '\n' || b == '\r' {
		return false
	}
	over := false
	if c.counting && c.depth == 2 && c.next && b != ']' && b != ',' {
		c.members++
		c.next, over = false, c.members > MaxBatchInstances
	}
	switch b {
	case '"':
		c.str, c.key = true, c.key[:0]
	case ':':
		c.named = c.depth == 1 && isInstancesKey(c.key)
	case '{', '[':
		c.depth++
		if c.depth == 2 && b == '[' && c.named {
			c.counting, c.next, c.members = true, true, 0
		}
	case '}', ']':
		c.counting = c.counting && c.depth != 2
		c.depth--
	case ',':
		c.next = c.depth == 2
	}
	return over
}

// isInstancesKey reports whether the raw bytes of a key, between its
// quotes, name the instances field.
func isInstancesKey(raw []byte) bool {
	if len(raw) > maxKeyBytes {
		return false
	}
	if bytes.IndexByte(raw, '\\') >= 0 {
		var key string
		if json.Unmarshal(append(append([]byte{'"'}, raw...), '"'), &key) != nil {
			return false
		}
		raw = []byte(key)
	}
	return bytes.EqualFold(raw, []byte("instances"))
}
