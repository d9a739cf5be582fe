// Package crowdsim is the crowd-market substrate of this reproduction: a
// stochastic model of an AMT-like platform that stands in for the live
// experiments of Section 2 of the SLADE paper (Jelly-Beans-in-a-Jar and
// Micro-Expressions Identification).
//
// The model captures the three empirical facts the paper's motivation
// experiments establish, which are the facts the SLADE algorithms consume:
//
//  1. Per-task confidence declines roughly linearly with bin cardinality
//     (cognitive load), from ≈0.98 at cardinality 2 to ≈0.78 at 30 for
//     Jelly, and ≈0.15-0.2 lower for SMIC.
//  2. Confidence is only mildly sensitive to pay, but the *throughput* of
//     workers is strongly pay-sensitive: a bin's completion time grows with
//     cardinality and shrinks with pay, so cheap large bins miss the
//     response deadline ("overtime", dotted lines in Figure 3) — at $0.05
//     Jelly bins beyond cardinality ≈14 time out, at $0.10 cardinality 30
//     still finishes within the 40-minute threshold.
//  3. Harder tasks shift the whole confidence curve down (Figure 3c).
//
// Completion time is modelled as T(l, c) = K·l/c minutes with a lognormal
// worker-speed multiplier: the time to attract and finish work is inversely
// proportional to the per-atomic-task pay c/l and proportional to the
// amount of work l (so T ∝ l²/c in cardinality at fixed bin price, matching
// the observed in-time boundaries 14/$0.05, 24/$0.08, 30/$0.10 within one
// cardinality step).
//
// # RNG and seed-derivation rules
//
// Every stochastic component draws from an explicit seed, never from
// global randomness, so any execution is a pure function of its inputs:
//
//   - A Platform owns one rand.Rand seeded at construction (crowdsim.New);
//     a fixed (Params, seed) pair replays an identical RunBin/Probe
//     sequence across processes — the property the serving layer's run
//     jobs rely on to re-serve persisted ExecutionReports without
//     re-executing.
//   - A Pool owns its own rand.Rand, which must NOT be seeded with the
//     platform seed verbatim: both streams would replay the same
//     sequence, correlating worker-skill offsets with per-bin answer
//     noise. Callers derive a decorrelated seed instead — the serving
//     layer uses seed*0x9E3779B9 + tag (see service.PlatformSpec) with a
//     distinct tag per consumer ("pool", "trut"), keeping every stream a
//     pure function of the one request seed.
//   - Determinism holds for a sequential call order only. Platform
//     methods are safe for concurrent use (a mutex serializes RNG draws),
//     but concurrent callers interleave draws nondeterministically;
//     callers that need reproducibility give each execution its own
//     seeded Platform (the run-job PlatformFactory does exactly this).
//
// Pool is not safe for concurrent use; wrap it (or confine it to one
// goroutine) before sharing. The executor.RunnerFunc built from its RunBin
// inherits that contract.
package crowdsim

import (
	"strings"
	"time"
)

// Params defines one task type's crowd-behaviour model.
type Params struct {
	// Name labels the model ("Jelly", "SMIC").
	Name string
	// BaseConfidence is the per-task confidence at cardinality 2, the
	// reference (highest) pay tier, and the default difficulty.
	BaseConfidence float64
	// ConfidenceDecay is the confidence lost per unit of cardinality
	// beyond 2 (the cognitive-load slope of Figure 3).
	ConfidenceDecay float64
	// PayPenalty is the confidence lost per ln(refPay/pay) of per-task pay
	// below the reference tier; the paper observes this to be mild.
	PayPenalty float64
	// RefPay is the highest per-bin pay tier used in the motivation
	// experiments ($0.10 Jelly, $0.20 SMIC).
	RefPay float64
	// DifficultyShift is the confidence change per difficulty level away
	// from the default level 2 (positive levels are harder).
	DifficultyShift float64
	// MinConfidence / MaxConfidence clamp the model.
	MinConfidence, MaxConfidence float64
	// TimeFactor is K in T(l,c) = K·l/c minutes of expected bin
	// completion time.
	TimeFactor float64
	// TimeJitter is the σ of the lognormal completion-time multiplier.
	TimeJitter float64
	// Deadline is the response-time threshold beyond which a bin is
	// disqualified (40 min Jelly, 30 min SMIC).
	Deadline time.Duration
	// WorkerSigma is the per-worker skill spread added to the confidence.
	WorkerSigma float64
}

// Jelly returns the Jelly-Beans-in-a-Jar model of Example 2: dot-counting
// comparisons with confidence 0.981→0.783 over cardinality 2→30 and a
// 40-minute deadline at pay tiers $0.05/$0.08/$0.10 per bin.
func Jelly() Params {
	return Params{
		Name:            "Jelly",
		BaseConfidence:  0.981,
		ConfidenceDecay: 0.00707, // (0.981-0.783)/28
		PayPenalty:      0.012,
		RefPay:          0.10,
		DifficultyShift: 0.025,
		MinConfidence:   0.51,
		MaxConfidence:   0.995,
		TimeFactor:      0.135, // minutes·$ per task² — boundary ≈14 at $0.05
		TimeJitter:      0.18,
		Deadline:        40 * time.Minute,
		WorkerSigma:     0.02,
	}
}

// SMIC returns the Micro-Expressions Identification model of Example 3:
// emotion labelling against the SMIC database, confidence ≈0.85→0.55 over
// cardinality 2→30, a 30-minute deadline and pay tiers $0.05/$0.10/$0.20.
func SMIC() Params {
	return Params{
		Name:            "SMIC",
		BaseConfidence:  0.85,
		ConfidenceDecay: 0.0107, // (0.85-0.55)/28
		PayPenalty:      0.018,
		RefPay:          0.20,
		DifficultyShift: 0.035,
		MinConfidence:   0.50,
		MaxConfidence:   0.92,
		TimeFactor:      0.10, // 30-min deadline, same qualitative boundaries
		TimeJitter:      0.22,
		Deadline:        30 * time.Minute,
		WorkerSigma:     0.03,
	}
}

// ModelByName maps a crowd-model name onto its parameters: "jelly" (also
// the empty name) or "smic", case-insensitively. It reports false for any
// other name.
func ModelByName(name string) (Params, bool) {
	switch strings.ToLower(name) {
	case "", "jelly":
		return Jelly(), true
	case "smic":
		return SMIC(), true
	}
	return Params{}, false
}

// DefaultDifficulty is the reference difficulty level (level 2 in
// Figure 3c: the 200-dot sample image).
const DefaultDifficulty = 2
