package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricType enumerates the exposition types the registry renders.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Label is one name="value" pair attached to a series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent: asking for the same
// (name, labels) series twice returns the same instrument, so a handler
// can be rebuilt over a live service without losing or forking counts.
// Registration takes a lock; the instruments themselves stay lock-free,
// so the hot path never touches the registry.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func(*Emitter)
}

type family struct {
	name   string
	typ    MetricType
	help   string
	series map[string]*series // keyed by rendered label suffix
}

type series struct {
	labels  string // pre-rendered `{k="v",...}` or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter series for (name, labels), creating the
// family and series on first use. Panics if name is already registered
// with a different type, or shares a sample name with a histogram family
// (see shadows) — metric names are static program structure, and a clash
// is a bug worth failing loudly on.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, TypeCounter, HistogramOpts{}, labels).counter
}

// Gauge returns the gauge series for (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, TypeGauge, HistogramOpts{}, labels).gauge
}

// HistogramOpts selects a bucket layout; the zero value means the
// default latency layout (seconds, 10µs..~10min, powers of two).
type HistogramOpts struct {
	Base    float64
	Growth  float64
	Buckets int
}

// Histogram returns the histogram series for (name, labels), creating it
// with the given layout on first use (the layout of an existing series
// is left untouched).
func (r *Registry) Histogram(name, help string, opts HistogramOpts, labels ...Label) *Histogram {
	return r.lookup(name, help, TypeHistogram, opts, labels).hist
}

// lookup finds or creates the series for (name, labels), including its
// instrument — everything happens under r.mu, so two goroutines racing
// to register the same new series always come back with the same
// instrument (the idempotency contract above) and WriteTo never observes
// a series whose instrument is still being filled in.
func (r *Registry) lookup(name, help string, typ MetricType, opts HistogramOpts, labels []Label) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		if other, ok := shadows(name, typ, r.typeOf); ok {
			panic(fmt.Sprintf("obs: metric %q shares a sample name with %q", name, other))
		}
		f = &family{name: name, typ: typ, help: help, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		switch typ {
		case TypeCounter:
			s.counter = &Counter{}
		case TypeGauge:
			s.gauge = &Gauge{}
		case TypeHistogram:
			if opts == (HistogramOpts{}) {
				s.hist = NewLatencyHistogram()
			} else {
				s.hist = NewHistogram(opts.Base, opts.Growth, opts.Buckets)
			}
		}
		f.series[key] = s
	}
	return s
}

// typeOf reports a registered family's type. Caller holds r.mu.
func (r *Registry) typeOf(name string) (MetricType, bool) {
	if f := r.families[name]; f != nil {
		return f.typ, true
	}
	return "", false
}

// histogramSuffixes end the names of the samples a histogram family
// renders.
var histogramSuffixes = [...]string{"_bucket", "_sum", "_count"}

// shadows reports the family a new family (name, typ) would share a sample
// name with, looking families up with typeOf: a histogram one of whose
// _bucket/_sum/_count samples is called name, or, for a new histogram, a
// family called like one of its own.
func shadows(name string, typ MetricType, typeOf func(string) (MetricType, bool)) (string, bool) {
	for _, suffix := range histogramSuffixes {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if t, ok := typeOf(base); ok && t == TypeHistogram {
				return base, true
			}
		}
		if typ == TypeHistogram {
			if _, ok := typeOf(name + suffix); ok {
				return name + suffix, true
			}
		}
	}
	return "", false
}

// RegisterCollector adds a callback invoked at render time to emit
// dynamic series (values computed on scrape, e.g. per-key cache stats or
// uptime). An emitted family may not be a registered one, share a sample
// name with one, or change type within a scrape; the Emitter panics at the
// offending call, as lookup does on a type clash.
func (r *Registry) RegisterCollector(fn func(*Emitter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Emitter receives point-in-time samples from collectors during a
// render. Emitting the same (name, labels) twice in one scrape merges
// the samples by addition (counters/gauges) or histogram merge, so
// collectors exporting hashed keys cannot produce duplicate series.
type Emitter struct {
	// static holds the registered families' types at render time.
	static   map[string]MetricType
	families map[string]*emitFamily
	order    []string
}

type emitFamily struct {
	typ    MetricType
	help   string
	series map[string]*emitSeries
	order  []string
}

type emitSeries struct {
	labels string
	value  float64
	hist   HistogramSnapshot
	set    bool
}

// Counter emits one counter sample.
func (e *Emitter) Counter(name, help string, value uint64, labels ...Label) {
	e.sample(name, help, TypeCounter, float64(value), labels)
}

// Gauge emits one gauge sample.
func (e *Emitter) Gauge(name, help string, value float64, labels ...Label) {
	e.sample(name, help, TypeGauge, value, labels)
}

// Histogram emits one histogram sample from a snapshot.
func (e *Emitter) Histogram(name, help string, snap HistogramSnapshot, labels ...Label) {
	s := e.series(name, help, TypeHistogram, labels)
	if !s.set {
		s.hist = snap
		s.set = true
		return
	}
	merged := HistogramSnapshot{
		Bounds:  s.hist.Bounds,
		Buckets: append([]uint64(nil), s.hist.Buckets...),
		Count:   s.hist.Count + snap.Count,
		Sum:     s.hist.Sum + snap.Sum,
	}
	for i := range merged.Buckets {
		if i < len(snap.Buckets) {
			merged.Buckets[i] += snap.Buckets[i]
		}
	}
	s.hist = merged
}

func (e *Emitter) sample(name, help string, typ MetricType, v float64, labels []Label) {
	s := e.series(name, help, typ, labels)
	if s.set {
		s.value += v
		return
	}
	s.value = v
	s.set = true
}

func (e *Emitter) series(name, help string, typ MetricType, labels []Label) *emitSeries {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f := e.families[name]
	switch {
	case f != nil && f.typ != typ:
		panic(fmt.Sprintf("obs: collector metric %q emitted as %s (was %s)", name, typ, f.typ))
	case f == nil:
		if _, ok := e.static[name]; ok {
			panic(fmt.Sprintf("obs: collector metric %q is a registered family", name))
		}
		if other, ok := shadows(name, typ, e.typeOf); ok {
			panic(fmt.Sprintf("obs: collector metric %q shares a sample name with %q", name, other))
		}
		f = &emitFamily{typ: typ, help: help, series: make(map[string]*emitSeries)}
		e.families[name] = f
		e.order = append(e.order, name)
	}
	key := renderLabels(labels)
	s := f.series[key]
	if s == nil {
		s = &emitSeries{labels: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// typeOf reports the type of a registered or already emitted family.
func (e *Emitter) typeOf(name string) (MetricType, bool) {
	if t, ok := e.static[name]; ok {
		return t, true
	}
	if f := e.families[name]; f != nil {
		return f.typ, true
	}
	return "", false
}

// WriteTo renders every registered family plus all collector output in
// Prometheus text exposition format (version 0.0.4), families and series
// in sorted order so scrapes are deterministic and diffable.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	static := make(map[string]MetricType, len(r.families))
	for name, f := range r.families {
		names = append(names, name)
		static[name] = f.typ
	}
	sort.Strings(names)
	statics := make([]*family, 0, len(names))
	for _, name := range names {
		statics = append(statics, r.families[name])
	}
	collectors := make([]func(*Emitter), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	em := &Emitter{static: static, families: make(map[string]*emitFamily)}
	for _, fn := range collectors {
		fn(em)
	}

	var b strings.Builder
	for _, f := range statics {
		renderHeader(&b, f.name, f.typ, f.help)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.typ {
			case TypeCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case TypeGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(float64(s.gauge.Value())))
			case TypeHistogram:
				renderHistogram(&b, f.name, s.labels, s.hist.Snapshot())
			}
		}
	}
	emitted := append([]string(nil), em.order...)
	sort.Strings(emitted)
	for _, name := range emitted {
		f := em.families[name]
		renderHeader(&b, name, f.typ, f.help)
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch f.typ {
			case TypeHistogram:
				renderHistogram(&b, name, s.labels, s.hist)
			case TypeCounter:
				// Collector counters come from uint64 sources; render
				// them as integers without an exponent, like registered
				// counters.
				fmt.Fprintf(&b, "%s%s %d\n", name, s.labels, uint64(s.value))
			default:
				fmt.Fprintf(&b, "%s%s %s\n", name, s.labels, formatFloat(s.value))
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Expose renders the registry to a byte slice.
func (r *Registry) Expose() []byte {
	var b strings.Builder
	_, _ = r.WriteTo(&b)
	return []byte(b.String())
}

func renderHeader(b *strings.Builder, name string, typ MetricType, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// renderHistogram writes the cumulative _bucket series, _sum and _count
// for one histogram snapshot.
func renderHistogram(b *strings.Builder, name, labels string, s HistogramSnapshot) {
	var cum uint64
	for i, bound := range s.Bounds {
		if i < len(s.Buckets) {
			cum += s.Buckets[i]
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(labels, formatFloat(bound)), cum)
	}
	if n := len(s.Buckets); n > 0 {
		cum += s.Buckets[n-1]
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, cum)
}

// withLE splices the le label into a pre-rendered label suffix.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// renderLabels renders labels sorted by name as `{k="v",...}`; empty
// input renders as "". Sorting makes the rendered string a canonical
// series key.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way the exposition format expects:
// shortest round-trip representation, +Inf/-Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
