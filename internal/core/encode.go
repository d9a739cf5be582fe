package core

import (
	"bufio"
	"io"
	"strconv"
)

// This file holds the streaming JSON encoders for plans. encoding/json
// over Materialized() pays O(assignments) memory for a body that is written
// out linearly anyway; the encoders here stream the identical bytes
// straight off EachUse: full-block uses encode from arena windows (an
// identity arena's from one block-sized buffer), padded uses from the
// pooled scratch, and the only other buffers are one bufio.Writer and one
// small number scratch — O(runs) server memory regardless of plan size.

// encodeBufSize is the bufio chunk the streaming encoders write through.
const encodeBufSize = 32 << 10

// EncodeJSON writes the plan's wire form — exactly the bytes encoding/json
// produces for {"uses": Materialized()} ({"uses":null} for an empty plan)
// — without materializing the plan. The equivalence is pinned byte for
// byte by TestEncodeJSONMatchesMarshal.
func (p *Plan) EncodeJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, encodeBufSize)
	bw.WriteString(`{"uses":`) // bufio errors are sticky; Flush reports them
	if err := p.encodeUses(bw); err != nil {
		return err
	}
	bw.WriteByte('}')
	return bw.Flush()
}

// EncodeUses writes the bare uses array — the bytes json.Marshal produces
// for Materialized() (null for a plan whose materialized view is nil) —
// for callers that splice the plan into a larger JSON document without
// the {"uses":...} wrapper.
func (p *Plan) EncodeUses(w io.Writer) error {
	bw := bufio.NewWriterSize(w, encodeBufSize)
	if err := p.encodeUses(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// EncodeUsesNDJSON writes one bin use per line, each line byte-identical
// to the standalone json.Marshal of that BinUse, with no surrounding
// array. An empty plan writes nothing. This is the content-negotiated
// application/x-ndjson form of the plan body.
func (p *Plan) EncodeUsesNDJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, encodeBufSize)
	var scratch []byte
	err := p.EachUse(func(card int, tasks []int) error {
		encodeUse(bw, &scratch, card, tasks)
		return bw.WriteByte('\n')
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// encodeUses writes the value of the "uses" field: null for a plan with
// zero uses (its materialized view is nil), otherwise the streamed array.
func (p *Plan) encodeUses(bw *bufio.Writer) error {
	if p.NumUses() == 0 {
		_, err := bw.WriteString("null")
		return err
	}
	bw.WriteByte('[')
	first := true
	var scratch []byte
	err := p.EachUse(func(card int, tasks []int) error {
		if first {
			first = false
		} else {
			bw.WriteByte(',')
		}
		// bufio errors are sticky, so the last write's error aborts the
		// iteration as soon as the underlying writer fails (a
		// disconnected HTTP client, say) instead of streaming the rest
		// of a million-use plan into a dead pipe.
		return encodeUse(bw, &scratch, card, tasks)
	})
	if err != nil {
		return err
	}
	return bw.WriteByte(']')
}

// encodeUse writes one {"cardinality":N,"tasks":[...]} object and
// returns the (sticky) writer error. tasks is never nil: every run covers
// at least one arena slot.
func encodeUse(bw *bufio.Writer, scratch *[]byte, card int, tasks []int) error {
	bw.WriteString(`{"cardinality":`)
	*scratch = strconv.AppendInt((*scratch)[:0], int64(card), 10)
	bw.Write(*scratch)
	bw.WriteString(`,"tasks":[`)
	for i, t := range tasks {
		if i > 0 {
			bw.WriteByte(',')
		}
		*scratch = strconv.AppendInt((*scratch)[:0], int64(t), 10)
		bw.Write(*scratch)
	}
	_, err := bw.WriteString(`]}`)
	return err
}
