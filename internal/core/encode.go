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
// plan size. Ids are rendered two ways. Explicit arena slots go through
// strconv.AppendInt, appended in place. A use over consecutive ids of a
// hundred and up on an identity arena — full-block or an unwrapped padded
// one, which is nearly every use of a homogeneous solve — is
// counted out in decimal instead: the digits of id/100 are a prefix
// rendered once per hundred ids, id%100 comes from a two-digit table, and
// room for the whole use is reserved first, so the loop per id is a
// fixed-size copy and three stores with no formatting, flush or capacity
// check.

// encodeBufSize is the chunk the streaming encoders fill and write out.
const encodeBufSize = 32 << 10

const (
	// maxIntLen bounds the rendered length of an int: sign and 19 digits.
	maxIntLen = 20
	// useFrameLen bounds everything a use renders besides its ids: the
	// longest lead, {"cardinality": N ,"tasks":[ and ]}.
	useFrameLen = len(`{"uses":[`) + len(`{"cardinality":`) + maxIntLen + len(`,"tasks":[`) + len(`]}`)
	// seqPrefixLen is the fixed width the counter copies an id's prefix
	// at, and so how far past the id's first byte it may scribble.
	seqPrefixLen = 24
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
func (p *Plan) EncodeJSON(w io.Writer) error {
	return p.encode(w, `{"uses":[`, `,`, `]}`, `{"uses":null}`)
}

// EncodeUses writes the bare uses array — the bytes json.Marshal produces
// for Materialized() (null for a plan whose materialized view is nil) —
// for callers that splice the plan into a larger JSON document without
// the {"uses":...} wrapper.
func (p *Plan) EncodeUses(w io.Writer) error {
	return p.encode(w, `[`, `,`, `]`, `null`)
}

// EncodeUsesNDJSON writes one bin use per line, each line byte-identical
// to the standalone json.Marshal of that BinUse, with no surrounding
// array. An empty plan writes nothing. This is the content-negotiated
// application/x-ndjson form of the plan body.
func (p *Plan) EncodeUsesNDJSON(w io.Writer) error {
	return p.encode(w, ``, "\n", "\n", ``)
}

// encode streams the plan's uses between open and end with sep between
// two uses, or writes empty for a plan with no use.
func (p *Plan) encode(w io.Writer, open, sep, end, empty string) error {
	c := chunk{w: w, buf: make([]byte, 0, encodeBufSize)}
	pr, lead := p.Runs(), open
	err := pr.eachSpan(func(s useSpan) error {
		c.use(pr, s, lead)
		lead = sep
		// The chunk's error is sticky, so the walk stops at the first use
		// after the underlying writer fails (a disconnected HTTP client,
		// say) instead of rendering the rest of a million-use plan at it.
		return c.err
	})
	if err != nil {
		return err
	}
	if lead == open { // no use was visited
		end = empty
	}
	c.reserve(len(end))
	c.buf = append(c.buf, end...)
	c.flush()
	return c.err
}

// chunk is the encoders' output buffer: bytes are appended to buf, within
// its fixed capacity, and handed to w a whole chunk at a time.
type chunk struct {
	w   io.Writer
	buf []byte
	err error // the first write error; once set nothing more is written
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

// use appends lead and one {"cardinality":N,"tasks":[...]} object. The
// task list is never empty: every use covers at least one arena slot.
func (c *chunk) use(pr *PlanRuns, s useSpan, lead string) {
	first, need := pr.Base+s.off, useFrameLen
	// Room for the counter: every id at full width, and its last copy.
	seqLen := need + s.n*(maxIntLen+1) + seqPrefixLen
	counted := pr.Arena == nil && s.wrapped == 0 && first >= 100 && seqLen <= encodeBufSize
	if counted {
		need = seqLen
	}
	c.reserve(need)
	c.buf = append(c.buf, lead...)
	c.buf = append(c.buf, `{"cardinality":`...)
	c.buf = strconv.AppendInt(c.buf, int64(s.card), 10)
	c.buf = append(c.buf, `,"tasks":[`...)
	if counted {
		c.buf = appendSeq(c.buf, first, s.n)
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

// appendSeq appends the n ≥ 1 consecutive ids from first ≥ 100, a comma
// after each. dst must have n·(maxIntLen+1) + seqPrefixLen bytes of spare
// capacity, the caller's reserve: the loop only stores.
func appendSeq(dst []byte, first, n int) []byte {
	b, i := dst[:cap(dst)], len(dst)
	hi, lo := first/100, first%100
	for n > 0 {
		var prefix [seqPrefixLen]byte
		plen := len(strconv.AppendInt(prefix[:0], int64(hi), 10))
		k := min(n, 100-lo) // ids left in this hundred
		n -= k
		for ; k > 0; k-- {
			*(*[seqPrefixLen]byte)(b[i:]) = prefix
			i += plen
			b[i], b[i+1], b[i+2] = digitPairs[2*lo], digitPairs[2*lo+1], ','
			i += 3
			lo++
		}
		hi, lo = hi+1, 0
	}
	return b[:i]
}
