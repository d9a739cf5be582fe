package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("k", "v"))
	b := r.Counter("x_total", "help", L("k", "v"))
	if a != b {
		t.Fatalf("same (name, labels) returned distinct counters")
	}
	c := r.Counter("x_total", "help", L("k", "other"))
	if a == c {
		t.Fatalf("distinct labels returned the same counter")
	}
	g1 := r.Gauge("g", "help")
	g2 := r.Gauge("g", "help")
	if g1 != g2 {
		t.Fatalf("same gauge series returned distinct gauges")
	}
	h1 := r.Histogram("h_seconds", "help", HistogramOpts{})
	h2 := r.Histogram("h_seconds", "help", HistogramOpts{Base: 1, Growth: 2, Buckets: 4})
	if h1 != h2 {
		t.Fatalf("same histogram series returned distinct histograms")
	}
}

func TestRegistryTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "help")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on type clash")
		}
	}()
	r.Gauge("clash", "help")
}

func TestRegistryInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, f := range []func(){
		func() { r.Counter("9starts_with_digit", "h") },
		func() { r.Counter("has-dash", "h") },
		func() { r.Counter("", "h") },
		func() { r.Counter("ok_total", "h", L("__reserved", "v")) },
		func() { r.Counter("ok_total", "h", L("bad-label", "v")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic on invalid name")
				}
			}()
			f()
		}()
	}
}

// TestRegistryRenderGolden pins the exposition of one fixed registry byte
// for byte: a counter, a gauge, a default- and a custom-layout histogram,
// label values carrying `"`, `\`, a newline and `}`, and a counter and a
// gauge read at render time, sorted among the instruments. What a
// validator would check of it — one HELP and TYPE per family, unique
// series, escaped values, cumulative buckets whose +Inf equals _count, a
// _sum per histogram — is visible in the golden, and holds for any
// registry by construction of WriteTo.
func TestRegistryRenderGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests served.", L("route", "/v1/jobs/{id}"), L("code", "2xx")).Add(7)
	r.Counter("app_requests_total", "Requests served.", L("route", "/b"), L("code", "5xx")).Inc()
	r.Counter("app_notes_total", "Notes with a \\ and a\nnewline.", L("note", "say \"hi\" \\ back\n}")).Add(2)
	r.Gauge("app_inflight", "In-flight requests.").Set(-3)
	def := r.Histogram("app_latency_seconds", "Latency.", HistogramOpts{}, L("route", "/v1/jobs/{id}"))
	for _, v := range []float64{0.00002, 0.003, 0.5, 1e4} {
		def.Observe(v)
	}
	custom := r.Histogram("app_size_bytes", "Sizes.", HistogramOpts{Base: 0.001, Growth: 2, Buckets: 6})
	for _, v := range []float64{0.0005, 0.003, 0.02, 5} {
		custom.Observe(v)
	}
	dynamic := uint64(11)
	r.Func("app_dynamic_total", "Counter read at render time.", TypeCounter, func() float64 { return float64(dynamic) }, L("key", "k}1"))
	r.Func("app_uptime_seconds", "Uptime.", TypeGauge, func() float64 { return 12.5 })

	dynamic += 4 // a read returns the value at render time
	out := string(r.Expose())
	if out != registryGolden {
		t.Fatalf("exposition drifted from the golden:\n%s", out)
	}
	if again := string(r.Expose()); again != out {
		t.Fatalf("two renders of an unchanged registry differ")
	}
}

const registryGolden = `# HELP app_dynamic_total Counter read at render time.
# TYPE app_dynamic_total counter
app_dynamic_total{key="k}1"} 15
# HELP app_inflight In-flight requests.
# TYPE app_inflight gauge
app_inflight -3
# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="1e-05"} 0
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="2e-05"} 1
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="4e-05"} 1
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="8e-05"} 1
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.00016"} 1
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.00032"} 1
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.00064"} 1
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.00128"} 1
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.00256"} 1
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.00512"} 2
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.01024"} 2
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.02048"} 2
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.04096"} 2
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.08192"} 2
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.16384"} 2
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.32768"} 2
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="0.65536"} 3
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="1.31072"} 3
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="2.62144"} 3
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="5.24288"} 3
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="10.48576"} 3
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="20.97152"} 3
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="41.94304"} 3
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="83.88608"} 3
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="167.77216"} 3
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="335.54432"} 3
app_latency_seconds_bucket{route="/v1/jobs/{id}",le="+Inf"} 4
app_latency_seconds_sum{route="/v1/jobs/{id}"} 10000.50302
app_latency_seconds_count{route="/v1/jobs/{id}"} 4
# HELP app_notes_total Notes with a \\ and a\nnewline.
# TYPE app_notes_total counter
app_notes_total{note="say \"hi\" \\ back\n}"} 2
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{code="2xx",route="/v1/jobs/{id}"} 7
app_requests_total{code="5xx",route="/b"} 1
# HELP app_size_bytes Sizes.
# TYPE app_size_bytes histogram
app_size_bytes_bucket{le="0.001"} 1
app_size_bytes_bucket{le="0.002"} 1
app_size_bytes_bucket{le="0.004"} 2
app_size_bytes_bucket{le="0.008"} 2
app_size_bytes_bucket{le="0.016"} 2
app_size_bytes_bucket{le="+Inf"} 4
app_size_bytes_sum 5.0235
app_size_bytes_count 4
# HELP app_uptime_seconds Uptime.
# TYPE app_uptime_seconds gauge
app_uptime_seconds 12.5
`

// TestRegistryCollisionPanics: every way two registrations could claim one
// series name panics where it is declared — a family named like another
// histogram's _bucket/_sum/_count series (in either registration order,
// by an instrument or a read), a read of a registered family's type
// clashing or of a series already held, and a histogram read.
func TestRegistryCollisionPanics(t *testing.T) {
	one := func() float64 { return 1 }
	for name, f := range map[string]func(r *Registry){
		"counter named like a histogram's _count": func(r *Registry) {
			r.Histogram("app_seconds", "h", HistogramOpts{})
			r.Counter("app_seconds_count", "h")
		},
		"histogram whose _bucket is a registered gauge": func(r *Registry) {
			r.Gauge("app_seconds_bucket", "h")
			r.Histogram("app_seconds", "h", HistogramOpts{})
		},
		"read named like a registered histogram's _sum": func(r *Registry) {
			r.Histogram("app_seconds", "h", HistogramOpts{})
			r.Func("app_seconds_sum", "h", TypeGauge, one)
		},
		"histogram whose _count is a read": func(r *Registry) {
			r.Func("app_seconds_count", "h", TypeCounter, one)
			r.Histogram("app_seconds", "h", HistogramOpts{})
		},
		"read of a registered family as another type": func(r *Registry) {
			r.Gauge("app_things", "h")
			r.Func("app_things", "h", TypeCounter, one)
		},
		"read of a series an instrument holds": func(r *Registry) {
			r.Gauge("app_inflight", "h")
			r.Func("app_inflight", "h", TypeGauge, one)
		},
		"instrument of a series a read holds": func(r *Registry) {
			r.Func("app_inflight", "h", TypeGauge, one)
			r.Gauge("app_inflight", "h")
		},
		"read registered twice": func(r *Registry) {
			r.Func("app_inflight", "h", TypeGauge, one)
			r.Func("app_inflight", "h", TypeGauge, one)
		},
		"histogram read": func(r *Registry) {
			r.Func("app_seconds", "h", TypeHistogram, one)
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f(r)
		})
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("con_total", "h", L("k", "a")).Inc()
				r.Histogram("con_seconds", "h", HistogramOpts{}).Observe(0.001)
				_ = r.Expose()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("con_total", "h", L("k", "a")).Value(); got != 8*200 {
		t.Fatalf("counter = %d, want %d", got, 8*200)
	}
}

// TestRegistryConcurrentFirstRegistration: N goroutines racing to
// register the same brand-new series must all get the same instrument —
// instrument creation happens under the registry mutex, so no goroutine
// can observe (or increment) an instrument that a racer then replaces.
func TestRegistryConcurrentFirstRegistration(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	var (
		start    sync.WaitGroup
		done     sync.WaitGroup
		counters [goroutines]*Counter
		gauges   [goroutines]*Gauge
		hists    [goroutines]*Histogram
	)
	start.Add(1)
	for i := 0; i < goroutines; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			counters[i] = r.Counter("race_total", "h", L("k", "v"))
			counters[i].Inc()
			gauges[i] = r.Gauge("race_gauge", "h")
			hists[i] = r.Histogram("race_seconds", "h", HistogramOpts{})
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 1; i < goroutines; i++ {
		if counters[i] != counters[0] || gauges[i] != gauges[0] || hists[i] != hists[0] {
			t.Fatalf("goroutine %d got a forked instrument", i)
		}
	}
	// Every increment landed on the one shared counter.
	if got := counters[0].Value(); got != goroutines {
		t.Fatalf("counter = %d, want %d (increments lost to a forked instrument)", got, goroutines)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "has \\ and\nnewline", L("k", "a\"b\\c\nd")).Inc()
	out := string(r.Expose())
	if !strings.Contains(out, `esc_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, `# HELP esc_total has \\ and\nnewline`) {
		t.Fatalf("help escaping wrong:\n%s", out)
	}
}
