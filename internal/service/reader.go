package service

import (
	"bytes"
	"strconv"

	"repro/internal/core"
)

// bodyReader reads a buffered request body of one of the four routes that
// carry bins straight into its wire struct, with no reflection and no copy
// of the body. It reads a strict subset of JSON, the form clients render:
//
//   - keys in their field's exact case, each given once;
//   - strings of printable ASCII with no escapes;
//   - integers through strconv.ParseInt and floats through
//     strconv.ParseFloat, over literals in JSON's number grammar — the
//     calls encoding/json makes, so the values match its bit for bit;
//   - true and false, but no null;
//   - JSON whitespace between tokens, and nothing after the value.
//
// It refuses anything else, and a body without bins, by returning false;
// decodeMenuBody then decodes the same bytes plainly, so every 400 keeps
// encoding/json's text. Bins are found as a raw span and looked up in the
// menu table; only a miss decodes them.
type bodyReader struct {
	b     []byte
	i     int
	table *menuTable
	menu  decodedMenu
	bins  bool // a bins field was read
}

// maxSkipDepth bounds the nesting the reader skips inside bins, well under
// encoding/json's own limit, so a span it accepts decodes the same alone
// as inside the body.
const maxSkipDepth = 16

// request reads the whole body into req, one of the menuRequest types, and
// reports whether it was in the subset.
func (d *bodyReader) request(req any) bool {
	var ok bool
	switch req := req.(type) {
	case *decomposeRequest:
		ok = d.object(func(key []byte) bool { return d.decomposeField(req, key) })
	case *batchDecomposeRequest:
		ok = d.object(func(key []byte) bool { return d.batchField(req, key) })
	case *jobRequest:
		ok = d.object(func(key []byte) bool { return d.jobField(req, key) })
	case *streamOpenRequest:
		ok = d.object(func(key []byte) bool { return d.streamField(req, key) })
	}
	d.space()
	return ok && d.bins && d.i == len(d.b)
}

// The field readers read the value of one key of their wire type, and
// refuse a key it does not have.

func (d *bodyReader) decomposeField(req *decomposeRequest, key []byte) bool {
	switch string(key) {
	case "bins":
		return d.menuBins()
	case "solver":
		return d.readString(&req.Solver)
	case "include_plan":
		return d.readBool(&req.IncludePlan)
	}
	return d.shapeField(&req.instanceShape, key, nil)
}

// shapeField reads a threshold into *threshold, or into a new float64
// when threshold is nil.
func (d *bodyReader) shapeField(sh *instanceShape, key []byte, threshold *float64) bool {
	switch string(key) {
	case "n":
		return d.readInt(&sh.N)
	case "threshold":
		if threshold == nil {
			threshold = new(float64)
		}
		sh.Threshold = threshold
		return d.readFloat(threshold)
	case "thresholds":
		sh.Thresholds = []float64{}
		return d.array(func() bool {
			sh.Thresholds = append(sh.Thresholds, 0)
			return d.readFloat(&sh.Thresholds[len(sh.Thresholds)-1])
		})
	}
	return false
}

func (d *bodyReader) batchField(req *batchDecomposeRequest, key []byte) bool {
	switch string(key) {
	case "bins":
		return d.menuBins()
	case "solver":
		return d.readString(&req.Solver)
	case "instances":
		// Count the members first, so that the members and their
		// thresholds take one allocation each; past MaxBatchInstances,
		// leave the body to the plain decode, which rejects it before
		// allocating a member.
		start, n := d.i, 0
		if !d.array(func() bool { n++; return d.skip(1) }) || n > MaxBatchInstances {
			return false
		}
		d.i = start
		req.Instances = make([]instanceShape, 0, n)
		thresholds := make([]float64, n)
		return d.array(func() bool {
			req.Instances = append(req.Instances, instanceShape{})
			i := len(req.Instances) - 1
			return d.object(func(key []byte) bool { return d.shapeField(&req.Instances[i], key, &thresholds[i]) })
		})
	}
	return false
}

func (d *bodyReader) jobField(req *jobRequest, key []byte) bool {
	switch string(key) {
	case "kind":
		return d.readString(&req.Kind)
	case "run":
		rr := new(runRequest)
		req.Run = rr
		return d.object(func(key []byte) bool { return d.runField(rr, key) })
	}
	return d.decomposeField(&req.decomposeRequest, key)
}

func (d *bodyReader) runField(rr *runRequest, key []byte) bool {
	switch string(key) {
	case "platform":
		return d.readString(&rr.Platform)
	case "seed":
		return d.readInt64(&rr.Seed)
	case "pool_size":
		return d.readInt(&rr.PoolSize)
	case "spammer_fraction":
		return d.readFloat(&rr.SpammerFraction)
	case "skill_sigma":
		return d.readFloat(&rr.SkillSigma)
	case "platform_kind":
		return d.readString(&rr.PlatformKind)
	case "difficulty":
		return d.readInt(&rr.Difficulty)
	case "max_retries":
		return d.readInt(&rr.MaxRetries)
	case "top_up":
		rr.TopUp = new(bool)
		return d.readBool(rr.TopUp)
	case "max_top_ups":
		return d.readInt(&rr.MaxTopUps)
	case "truth":
		rr.Truth = []bool{}
		return d.array(func() bool {
			rr.Truth = append(rr.Truth, false)
			return d.readBool(&rr.Truth[len(rr.Truth)-1])
		})
	case "positive_rate":
		return d.readFloat(&rr.PositiveRate)
	}
	return false
}

func (d *bodyReader) streamField(req *streamOpenRequest, key []byte) bool {
	switch string(key) {
	case "bins":
		return d.menuBins()
	case "threshold":
		return d.readFloat(&req.Threshold)
	}
	return false
}

// menuBins reads the bins value as a raw span and resolves it through the
// table. A miss is decoded as the plain wire types decode bins (unknown
// fields refused) and validated by core.NewBinSet; only a menu that passes
// both is inserted, and a validation error is kept for the handler.
func (d *bodyReader) menuBins() bool {
	d.space()
	start := d.i
	if !d.skip(0) {
		return false
	}
	raw := d.b[start:d.i]
	d.bins = true
	if set, ok := d.table.lookup(raw); ok {
		d.menu.set = set
		return true
	}
	var bins []core.TaskBin
	if decodeValue(bytes.NewReader(raw), &bins) != nil {
		return false
	}
	d.menu.set, d.menu.err = core.NewBinSet(bins)
	if d.menu.err == nil {
		d.table.insert(raw, d.menu.set)
	}
	return true
}

// skip reads one value of the subset, at the given nesting depth, without
// keeping it.
func (d *bodyReader) skip(depth int) bool {
	if depth > maxSkipDepth {
		return false
	}
	d.space()
	if d.i == len(d.b) {
		return false
	}
	switch d.b[d.i] {
	case '{':
		return d.object(func([]byte) bool { return d.skip(depth + 1) })
	case '[':
		return d.array(func() bool { return d.skip(depth + 1) })
	case '"':
		_, ok := d.str()
		return ok
	case 't', 'f':
		var b bool
		return d.readBool(&b)
	}
	_, ok := d.number()
	return ok
}

// object reads an object, calling field with each key and the reader at
// that key's value; field reads the value or refuses. A key given twice
// refuses, and so does an object of more keys than any wire type has.
func (d *bodyReader) object(field func(key []byte) bool) bool {
	if !d.token('{') {
		return false
	}
	if d.token('}') {
		return true
	}
	var keys [16][]byte
	for k := 0; k < len(keys); k++ {
		key, ok := d.str()
		if !ok {
			return false
		}
		for _, prev := range keys[:k] {
			if bytes.Equal(prev, key) {
				return false
			}
		}
		keys[k] = key
		if !d.token(':') || !field(key) {
			return false
		}
		if !d.token(',') {
			return d.token('}')
		}
	}
	return false
}

// array reads an array, calling elem with the reader at each element.
func (d *bodyReader) array(elem func() bool) bool {
	if !d.token('[') {
		return false
	}
	if d.token(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.token(',') {
			return d.token(']')
		}
	}
}

// readString reads a string of printable ASCII with no escapes into dst.
func (d *bodyReader) readString(dst *string) bool {
	s, ok := d.str()
	*dst = string(s)
	return ok
}

// str reads a string of the subset and returns its bytes, unquoted.
func (d *bodyReader) str() ([]byte, bool) {
	if !d.token('"') {
		return nil, false
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (d *bodyReader) readBool(dst *bool) bool {
	d.space()
	switch rest := d.b[d.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, d.i = true, d.i+len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, d.i = false, d.i+len("false")
	default:
		return false
	}
	return true
}

func (d *bodyReader) readInt(dst *int) bool {
	lit, ok := d.number()
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*dst = int(v)
	return ok && err == nil
}

func (d *bodyReader) readInt64(dst *int64) bool {
	lit, ok := d.number()
	v, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = v
	return ok && err == nil
}

func (d *bodyReader) readFloat(dst *float64) bool {
	lit, ok := d.number()
	v, err := strconv.ParseFloat(string(lit), 64)
	*dst = v
	return ok && err == nil
}

// number reads a literal in JSON's number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *bodyReader) number() ([]byte, bool) {
	d.space()
	start := d.i
	d.consume('-')
	if !d.consume('0') && d.digits() == 0 {
		return nil, false
	}
	if d.consume('.') && d.digits() == 0 {
		return nil, false
	}
	if d.consume('e') || d.consume('E') {
		if !d.consume('+') {
			d.consume('-')
		}
		if d.digits() == 0 {
			return nil, false
		}
	}
	return d.b[start:d.i], true
}

// digits reads a run of decimal digits and returns its length.
func (d *bodyReader) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// token reads c after any whitespace.
func (d *bodyReader) token(c byte) bool {
	d.space()
	return d.consume(c)
}

// consume reads c if it is the next byte.
func (d *bodyReader) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (d *bodyReader) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}
