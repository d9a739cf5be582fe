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
// exposition format. A series is either an instrument the program writes
// into (Counter, Gauge, Histogram) or a read (Func) that returns a counter's
// or gauge's value at render time, for state the program already holds.
// Registration is idempotent for instruments: asking for the same
// (name, labels) series twice returns the same instrument, so a handler
// can be rebuilt over a live service without losing or forking counts.
// Registration takes a lock; the instruments themselves stay lock-free,
// so the hot path never touches the registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
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
	read    func() float64 // a Func series' value, in place of an instrument
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
	return r.lookup(name, help, TypeCounter, HistogramOpts{}, nil, labels).counter
}

// Gauge returns the gauge series for (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, TypeGauge, HistogramOpts{}, nil, labels).gauge
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
	return r.lookup(name, help, TypeHistogram, opts, nil, labels).hist
}

// Func registers a counter or gauge series (typ) whose value read returns
// at each render; a counter's value renders as an integer. The name and
// type checks are an instrument's. Panics on a histogram type and on a
// series already registered, by Func or as an instrument. read runs under
// the registry's lock, so it must not call back into the registry.
func (r *Registry) Func(name, help string, typ MetricType, read func() float64, labels ...Label) {
	if typ == TypeHistogram {
		panic(fmt.Sprintf("obs: metric %q: a read is a counter or a gauge", name))
	}
	r.lookup(name, help, typ, HistogramOpts{}, read, labels)
}

// lookup finds or creates the series for (name, labels), including its
// instrument or read — everything happens under r.mu, so two goroutines
// racing to register the same new series always come back with the same
// instrument (the idempotency contract above) and WriteTo never observes
// a series whose instrument is still being filled in.
func (r *Registry) lookup(name, help string, typ MetricType, opts HistogramOpts, read func() float64, labels []Label) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		if other, ok := r.shadows(name, typ); ok {
			panic(fmt.Sprintf("obs: metric %q shares a sample name with %q", name, other))
		}
		f = &family{name: name, typ: typ, help: help, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	s := f.series[key]
	if s != nil {
		if read != nil || s.read != nil {
			panic(fmt.Sprintf("obs: series %s%s registered twice with a read", name, key))
		}
		return s
	}
	s = &series{labels: key, read: read}
	switch {
	case read != nil:
	case typ == TypeCounter:
		s.counter = &Counter{}
	case typ == TypeGauge:
		s.gauge = &Gauge{}
	case opts == (HistogramOpts{}):
		s.hist = NewLatencyHistogram()
	default:
		s.hist = NewHistogram(opts.Base, opts.Growth, opts.Buckets)
	}
	f.series[key] = s
	return s
}

// histogramSuffixes end the names of the samples a histogram family
// renders.
var histogramSuffixes = [...]string{"_bucket", "_sum", "_count"}

// shadows reports the registered family a new family (name, typ) would
// share a sample name with: a histogram one of whose _bucket/_sum/_count
// samples is called name, or, for a new histogram, a family called like
// one of its own. Caller holds r.mu.
func (r *Registry) shadows(name string, typ MetricType) (string, bool) {
	for _, suffix := range histogramSuffixes {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if f := r.families[base]; f != nil && f.typ == TypeHistogram {
				return base, true
			}
		}
		if typ == TypeHistogram {
			if r.families[name+suffix] != nil {
				return name + suffix, true
			}
		}
	}
	return "", false
}

// WriteTo renders every registered family in Prometheus text exposition
// format (version 0.0.4), families and series in sorted order so scrapes
// are deterministic and diffable.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		renderHeader(&b, name, f.typ, f.help)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch {
			case s.hist != nil:
				renderHistogram(&b, name, s.labels, s.hist.Snapshot())
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", name, s.labels, s.counter.Value())
			case s.gauge != nil:
				fmt.Fprintf(&b, "%s%s %s\n", name, s.labels, formatFloat(float64(s.gauge.Value())))
			case f.typ == TypeCounter:
				fmt.Fprintf(&b, "%s%s %d\n", name, s.labels, uint64(s.read()))
			default:
				fmt.Fprintf(&b, "%s%s %s\n", name, s.labels, formatFloat(s.read()))
			}
		}
	}
	r.mu.Unlock()
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
