// Package faultinject is the repo's one seeded network-fault injector: an
// http.RoundTripper that wraps a real transport and, per destination host,
// refuses, stalls, drops, 500s or truncates traffic. It sits on the
// client side of any outbound HTTP seam (service.Config.ClusterTransport,
// platform.Config.Transport), so the same injector drives the cluster
// chaos tests (via testcluster) and the marketplace chaos tests. It is
// test tooling, kept out of the product packages it breaks.
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

// Faults is the failure profile applied to one peer's traffic. The zero
// value injects nothing. Drop and Fail strike before the request is
// forwarded (the peer never sees it); Truncate and DropAfter strike after
// the peer has processed it — whatever it committed stays committed.
type Faults struct {
	// Down refuses every request with a synthetic connection error — the
	// killed-peer case. Checked before any probability draw so a down
	// peer stays down deterministically.
	Down bool
	// Delay stalls each request before it is forwarded (or failed). The
	// stall respects the request context, so attempt timeouts still fire.
	Delay time.Duration
	// DropProb is the probability a request vanishes: the stall runs,
	// then a connection error returns without the peer ever seeing it.
	DropProb float64
	// FailProb is the probability the peer answers with a synthetic
	// 500 instead of forwarding.
	FailProb float64
	// TruncateProb is the probability a forwarded response's body is cut
	// in half — the partial-body / mid-flight-crash case. The decode on
	// the caller side fails, which must count as a peer failure.
	TruncateProb float64
	// DropAfterProb is the probability a forwarded request's response is
	// discarded and a connection error returned instead — the
	// duplicate-delivery trap: the peer did the work, and the caller cannot
	// tell this from a request that never arrived.
	DropAfterProb float64
}

// Injector is an http.RoundTripper that wraps a real transport and
// injects per-peer faults. All randomness comes from one seeded source
// drawn under a mutex, so a fixed seed plus a fixed request order yields
// the same fault schedule — chaos tests are replayable. Rules are keyed
// by the peer URL's host, so one injector can front any number of peers.
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

// hostOf normalizes a peer identifier — a bare host:port or a full URL —
// to the host key requests are matched on.
func hostOf(peerURL string) string {
	if strings.Contains(peerURL, "://") {
		if u, err := url.Parse(peerURL); err == nil && u.Host != "" {
			return u.Host
		}
	}
	return strings.TrimSuffix(peerURL, "/")
}

// Set installs (or replaces) the fault profile for a peer, identified by
// base URL or host:port.
func (f *Injector) Set(peerURL string, faults Faults) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules[hostOf(peerURL)] = faults
}

// Kill marks the peer down, preserving the rest of its profile.
func (f *Injector) Kill(peerURL string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.rules[hostOf(peerURL)]
	r.Down = true
	f.rules[hostOf(peerURL)] = r
}

// Revive clears the peer's down flag, preserving the rest of its profile.
func (f *Injector) Revive(peerURL string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.rules[hostOf(peerURL)]
	r.Down = false
	f.rules[hostOf(peerURL)] = r
}

// decision is one request's precomputed fate, drawn in a single critical
// section so concurrent requests consume the seeded stream in a serial,
// countable order.
type decision struct {
	down      bool
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
	d := decision{down: r.Down, delay: r.Delay}
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
	if d.down {
		return nil, fmt.Errorf("faultinjector: peer %s is down: connection refused", req.URL.Host)
	}
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
		return nil, fmt.Errorf("faultinjector: peer %s dropped the request", req.URL.Host)
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
		return nil, fmt.Errorf("faultinjector: response from peer %s dropped: connection reset", req.URL.Host)
	}
	// Truncate: deliver only the first half of the body, then EOF — what a
	// peer crashing mid-response looks like to the JSON decoder.
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
