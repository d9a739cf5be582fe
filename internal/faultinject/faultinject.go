// Package faultinject is the repo's one seeded network-fault injector: an
// http.RoundTripper that wraps a real transport and, per destination host,
// stalls, drops, 500s or truncates traffic. It sits on the client side of
// an outbound HTTP seam (platform.Config.Transport) and drives the
// marketplace chaos tests. It is test tooling, kept out of the product
// packages it breaks.
package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Faults is the failure profile applied to one host's traffic. The zero
// value injects nothing. Drop and Fail strike before the request is
// forwarded (the host never sees it); Truncate and DropAfter strike after
// the host has processed it — whatever it committed stays committed.
type Faults struct {
	// Delay stalls each request before it is forwarded (or failed). The
	// stall respects the request context, so attempt timeouts still fire.
	Delay time.Duration
	// DropProb is the probability a request vanishes: the stall runs,
	// then a connection error returns without the host ever seeing it.
	DropProb float64
	// FailProb is the probability the host answers with a synthetic
	// 500 instead of forwarding.
	FailProb float64
	// TruncateProb is the probability a forwarded response's body is cut
	// in half — the partial-body / mid-flight-crash case. The decode on
	// the caller side fails, which must count as a host failure.
	TruncateProb float64
	// DropAfterProb is the probability a forwarded request's response is
	// discarded and a connection error returned instead — the
	// duplicate-delivery trap: the host did the work, and the caller cannot
	// tell this from a request that never arrived.
	DropAfterProb float64
}

// Injector is an http.RoundTripper that wraps a real transport and
// injects per-host faults. All randomness comes from one seeded source
// drawn under a mutex, so a fixed seed plus a fixed request order yields
// the same fault schedule — chaos tests are replayable. Rules are keyed
// by URL host, so one injector can front any number of hosts.
type Injector struct {
	base http.RoundTripper

	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string]Faults
}

// New wraps base (nil selects http.DefaultTransport) with a fault
// schedule seeded by seed.
func New(seed int64, base http.RoundTripper) *Injector {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Injector{
		base:  base,
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string]Faults),
	}
}

// hostOf normalizes a host identifier — a bare host:port or a full URL —
// to the host key requests are matched on.
func hostOf(hostURL string) string {
	if strings.Contains(hostURL, "://") {
		if u, err := url.Parse(hostURL); err == nil && u.Host != "" {
			return u.Host
		}
	}
	return strings.TrimSuffix(hostURL, "/")
}

// Set installs (or replaces) the fault profile for a host, identified by
// base URL or host:port.
func (f *Injector) Set(hostURL string, faults Faults) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules[hostOf(hostURL)] = faults
}

// decision is one request's precomputed fate, drawn in a single critical
// section so concurrent requests consume the seeded stream in a serial,
// countable order.
type decision struct {
	delay     time.Duration
	drop      bool
	fail      bool
	truncate  bool
	dropAfter bool
}

func (f *Injector) decide(host string) decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.rules[host]
	if !ok {
		return decision{}
	}
	d := decision{delay: r.Delay}
	// Always draw all four so the stream position per request is fixed
	// regardless of which probabilities are set.
	p1, p2, p3, p4 := f.rng.Float64(), f.rng.Float64(), f.rng.Float64(), f.rng.Float64()
	d.drop = p1 < r.DropProb
	d.fail = p2 < r.FailProb
	d.truncate = p3 < r.TruncateProb
	d.dropAfter = p4 < r.DropAfterProb
	return d
}

// RoundTrip implements http.RoundTripper.
func (f *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	d := f.decide(req.URL.Host)
	if d.delay > 0 {
		t := time.NewTimer(d.delay)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			return nil, req.Context().Err()
		}
	}
	if d.drop {
		return nil, fmt.Errorf("faultinjector: host %s dropped the request", req.URL.Host)
	}
	if d.fail {
		if req.Body != nil {
			req.Body.Close()
		}
		return &http.Response{
			Status:     "500 Internal Server Error",
			StatusCode: http.StatusInternalServerError,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"error":{"code":"internal","message":"injected fault"}}`)),
			Request:    req,
		}, nil
	}
	resp, err := f.base.RoundTrip(req)
	if err != nil || (!d.truncate && !d.dropAfter) {
		return resp, err
	}
	if d.dropAfter {
		resp.Body.Close()
		return nil, fmt.Errorf("faultinjector: response from host %s dropped: connection reset", req.URL.Host)
	}
	// Truncate: deliver only the first half of the body, then EOF — what a
	// host crashing mid-response looks like to the JSON decoder.
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	half := body[:len(body)/2]
	resp.Body = io.NopCloser(bytes.NewReader(half))
	resp.ContentLength = int64(len(half))
	resp.Header.Del("Content-Length")
	return resp, nil
}
