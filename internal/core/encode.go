package core

import (
	"io"
	"strconv"
)

// This file holds the streaming JSON encoders for plans. encoding/json
// over Materialized() pays O(assignments) memory for a body that is written
// out linearly anyway; the encoders here render the identical bytes
// straight off the run walk (eachSpan) into one fixed chunk that is handed
// to the io.Writer whenever it fills — O(1) server memory regardless of
// plan size. The chunk comes from a small free list and goes back to it
// when the encode returns, so a steady stream of encodes allocates
// nothing. A use's head — its lead and {"cardinality":N,"tasks":[ — is
// rendered only when the cardinality changes. Ids are rendered two ways.
// Explicit arena slots go through strconv.AppendInt, appended in place. A
// use over consecutive ids of a hundred and up on an identity arena —
// full-block or an unwrapped padded one, of any length, which is nearly
// every use of a homogeneous solve — is copied out of a page instead: the
// current hundred's ids, each rendered as the digits of id/100, the two
// digits of id%100 and a comma at a fixed stride, so a use is one append
// of a page slice per hundred it touches. The page lives in the encode's
// own state, is rendered once, and moves to the next hundred by rewriting
// in place only the prefix digits that carried; a jump to any other
// hundred, or a digit gained, renders it afresh.

// encodeBufSize is the chunk the streaming encoders fill and write out.
const encodeBufSize = 32 << 10

// freeChunks is the encoders' free list, Effective Go's leaky buffer: at
// most cap(freeChunks) idle chunks (256 KiB) stay resident. Taking one
// never blocks — an empty list means a fresh chunk — and a chunk given
// back to a full list is left to the garbage collector.
var freeChunks = make(chan []byte, 8)

const (
	// maxIntLen bounds the rendered length of an int: sign and 19 digits.
	maxIntLen = 20
	// useHeadLen bounds a use's rendered head: the longest lead,
	// {"cardinality": N and ,"tasks":[.
	useHeadLen = len(`{"uses":[`) + len(`{"cardinality":`) + maxIntLen + len(`,"tasks":[`)
)

// digitPairs is "000102…99": the two-digit rendering of i is at 2i.
const digitPairs = "" +
	"00010203040506070809" + "10111213141516171819" +
	"20212223242526272829" + "30313233343536373839" +
	"40414243444546474849" + "50515253545556575859" +
	"60616263646566676869" + "70717273747576777879" +
	"80818283848586878889" + "90919293949596979899"

// EncodeJSON writes the plan's wire form — exactly the bytes encoding/json
// produces for {"uses": Materialized()} ({"uses":null} for an empty plan)
// — without materializing the plan. The equivalence is pinned byte for
// byte by TestEncodeJSONMatchesMarshal.
//
// The encoders write through a chunk that later encodes reuse, so w's
// Write must not retain the slice it is given after it returns — the
// io.Writer rule; every writer in this module copies or discards.
func (p *Plan) EncodeJSON(w io.Writer) error {
	return p.encode(w, `{"uses":[`, `,`, `]}`, `{"uses":null}`)
}

// EncodeUses writes the bare uses array — the bytes json.Marshal produces
// for Materialized() (null for a plan whose materialized view is nil) —
// for callers that splice the plan into a larger JSON document without
// the {"uses":...} wrapper. Like EncodeJSON, it needs a w that does not
// retain what it is given.
func (p *Plan) EncodeUses(w io.Writer) error {
	return p.encode(w, `[`, `,`, `]`, `null`)
}

// EncodeUsesNDJSON writes one bin use per line, each line byte-identical
// to the standalone json.Marshal of that BinUse, with no surrounding
// array. An empty plan writes nothing. This is the content-negotiated
// application/x-ndjson form of the plan body. Like EncodeJSON, it needs a w
// that does not retain what it is given.
func (p *Plan) EncodeUsesNDJSON(w io.Writer) error {
	return p.encode(w, ``, "\n", "\n", ``)
}

// encode streams the plan's uses between open and end with sep between
// two uses, or writes empty for a plan with no use. The chunk is taken
// from the free list and goes back to it on every return, a failed Write
// included.
func (p *Plan) encode(w io.Writer, open, sep, end, empty string) error {
	var buf []byte
	select {
	case buf = <-freeChunks:
	default:
		buf = make([]byte, 0, encodeBufSize)
	}
	c := chunk{w: w, buf: buf}
	err := c.plan(p, open, sep, end, empty)
	select {
	case freeChunks <- c.buf[:0]:
	default:
	}
	return err
}

// plan renders the whole plan through the chunk and flushes it.
func (c *chunk) plan(p *Plan, open, sep, end, empty string) error {
	pr, lead, visited := p.Runs(), open, false
	err := pr.eachSpan(func(s useSpan) error {
		c.use(pr, s, lead)
		if !visited { // later heads lead with sep
			lead, visited, c.headCard = sep, true, 0
		}
		// The chunk's error is sticky, so the walk stops at the first use
		// after the underlying writer fails (a disconnected HTTP client,
		// say) instead of rendering the rest of a million-use plan at it.
		return c.err
	})
	if err != nil {
		return err
	}
	if !visited {
		end = empty
	}
	c.reserve(len(end))
	c.buf = append(c.buf, end...)
	c.flush()
	return c.err
}

// chunk is one encode's state: the output buffer — bytes are appended to
// buf, within its fixed capacity, and handed to w a whole chunk at a time
// — and what the encode has rendered for reuse, which no other encode
// sees: the last use head and the page of ids.
type chunk struct {
	w   io.Writer
	buf []byte
	err error // the first write error; once set nothing more is written

	head              [useHeadLen]byte // lead and head of a use of headCard tasks
	headLen, headCard int              // headCard 0: no head rendered
	page              page
}

// flush hands the filled part of the chunk to the writer.
func (c *chunk) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// reserve makes room for n more bytes (n ≤ encodeBufSize), flushing if
// the chunk cannot take them.
func (c *chunk) reserve(n int) {
	if cap(c.buf)-len(c.buf) < n {
		c.flush()
	}
}

// use appends one {"cardinality":N,"tasks":[...]} object after its lead.
// The task list is never empty: every use covers at least one arena slot.
func (c *chunk) use(pr *PlanRuns, s useSpan, lead string) {
	if s.card != c.headCard {
		h := append(c.head[:0], lead...)
		h = append(h, `{"cardinality":`...)
		h = strconv.AppendInt(h, int64(s.card), 10)
		c.headLen, c.headCard = len(append(h, `,"tasks":[`...)), s.card
	}
	c.reserve(c.headLen)
	c.buf = append(c.buf, c.head[:c.headLen]...)
	if first := pr.Base + s.off; pr.Arena == nil && s.wrapped == 0 && first >= 100 {
		c.seq(first, s.n)
	} else {
		c.slots(pr, s.off, s.n)
		c.slots(pr, s.wrapOff, s.wrapped)
	}
	c.buf[len(c.buf)-1] = ']' // over the last id's comma
	c.buf = append(c.buf, '}')
}

// slots appends the ids of arena slots [off, off+n), a comma after each,
// always leaving room for the byte that closes the use.
func (c *chunk) slots(pr *PlanRuns, off, n int) {
	for i := off; i < off+n; i++ {
		id := pr.Base + i
		if pr.Arena != nil {
			id = pr.Arena[i]
		}
		c.reserve(maxIntLen + 2)
		c.buf = append(strconv.AppendInt(c.buf, int64(id), 10), ',')
	}
}

// seq appends the n ≥ 1 consecutive ids from first ≥ 100, a comma after
// each, as one slice of the page per hundred they touch, always leaving
// room for the byte that closes the use.
func (c *chunk) seq(first, n int) {
	hi, lo := first/100, first%100
	for n > 0 {
		c.page.at(hi)
		k, stride := min(n, 100-lo), c.page.stride // ids left in this hundred
		c.reserve(k*stride + 1)
		c.buf = append(c.buf, c.page.b[lo*stride:(lo+k)*stride]...)
		n -= k
		hi, lo = hi+1, 0
	}
}

// page is the current hundred hi of consecutive ids: entry j, at
// j·stride, renders the id 100·hi + j as the digits of hi, the pair for j
// and a comma. The zero page, hi 0, holds nothing; seq asks for hundreds
// from 1 up.
type page struct {
	hi, plen, stride int
	b                [100 * (maxIntLen + 1)]byte
}

// at makes the page hold hundred hi ≥ 1.
func (pg *page) at(hi int) {
	if hi != pg.hi {
		pg.move(hi)
	}
}

// move takes the page to another hundred: to the next one by carrying
// into the prefix digits in place; to any other, or to one a digit wider,
// by rendering it afresh.
func (pg *page) move(hi int) {
	if hi != pg.hi+1 || !pg.carry() {
		pg.render(hi)
	}
}

// render writes every entry of hundred hi.
func (pg *page) render(hi int) {
	prefix := strconv.AppendInt(pg.b[:0], int64(hi), 10)
	pg.hi, pg.plen, pg.stride = hi, len(prefix), len(prefix)+3
	for j, e := 0, 0; j < 100; j, e = j+1, e+pg.stride {
		copy(pg.b[e:], pg.b[:pg.plen])
		pg.b[e+pg.plen], pg.b[e+pg.plen+1], pg.b[e+pg.plen+2] = digitPairs[2*j], digitPairs[2*j+1], ','
	}
}

// carry moves the page to hundred hi+1 by rewriting, in every entry, only
// the prefix digits the increment changes: the last digit that is not a
// 9 goes up by one and the 9s after it become 0s. It reports false, and
// changes nothing, when every digit is a 9 — the next hundred is a digit
// wider and must be rendered — or the page is the zero page.
func (pg *page) carry() bool {
	b, stride := pg.b[:100*pg.stride], pg.stride
	k := pg.plen - 1
	for k >= 0 && b[k] == '9' {
		k--
	}
	if k < 0 {
		return false
	}
	d := b[k] + 1
	if nines := pg.plen - 1 - k; nines > 0 {
		for e := k; e < len(b); e += stride {
			b[e] = d
			copy(b[e+1:e+1+nines], "0000000000000000000")
		}
	} else { // nine carries in ten: one store an entry, four entries a turn
		for e := k; e < len(b); e += 4 * stride {
			b[e] = d
			b[e+stride] = d
			b[e+2*stride] = d
			b[e+3*stride] = d
		}
	}
	pg.hi++
	return true
}
