// Fishing-line discovery (Example 1 of the paper): a satellite image of
// >2M km² is cut into small tiles, and the crowd flags tiles containing a
// fishing-line shape. The project cannot afford false negatives, so every
// tile must reach a high reliability — the probability that at least one
// assigned worker answers "yes" on a true fishing line.
//
// This example runs the full production loop on the simulated marketplace:
//
//  1. Calibrate a bin menu from probe bins with known ground truth.
//
//  2. Decompose 20,000 tiles at reliability 0.98 with OPQ-Based.
//
//  3. Execute the plan against simulated workers.
//
//  4. Compare the measured miss rate with the planned reliability, and the
//     cost with individual dispatch.
//
//     go run ./examples/fishingline
package main

import (
	"fmt"
	"log"
	"math/rand"

	slade "repro"
)

const (
	numTiles    = 20_000
	reliability = 0.98
	lineRate    = 0.03 // fraction of tiles that truly contain a line
	seed        = 2024
)

func main() {
	platform := slade.NewJellyPlatform(seed)

	// Step 1: probe the market to learn (cardinality, confidence, cost).
	cal, err := slade.Calibrate(platform, slade.CalibrationOptions{
		MaxCardinality: 20,
		Assignments:    100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated %d bin sizes (confidence %.3f at l=1 ... %.3f at l=%d)\n",
		cal.Bins.Len(),
		cal.Bins.At(0).Confidence,
		cal.Bins.At(cal.Bins.Len()-1).Confidence,
		cal.Bins.MaxCardinality())

	// Step 2: decompose the tile set.
	in, err := slade.NewHomogeneous(cal.Bins, numTiles, reliability)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := slade.Decompose(in)
	if err != nil {
		log.Fatal(err)
	}
	if err := plan.Validate(in); err != nil {
		log.Fatal(err)
	}
	sum, err := plan.Summarize(cal.Bins)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %s\n", sum)

	// Step 3: execute against simulated workers. Ground truth: ~3% of
	// tiles contain a fishing line.
	rng := rand.New(rand.NewSource(seed))
	truth := make([]bool, numTiles)
	positives := 0
	for i := range truth {
		if rng.Float64() < lineRate {
			truth[i] = true
			positives++
		}
	}
	out, err := slade.Execute(platform, in, plan, truth, slade.ExecutionOptions{MaxRetries: -1, Difficulty: 2})
	if err != nil {
		log.Fatal(err)
	}

	// Step 4: report.
	fmt.Printf("tiles with a true line: %d\n", positives)
	fmt.Printf("measured reliability:   %.4f (planned ≥ %.2f)\n",
		out.EmpiricalReliability, reliability)
	fmt.Printf("missed lines:           %d\n",
		positives-int(out.EmpiricalReliability*float64(positives)+0.5))
	fmt.Printf("overtime bins:          %d of %d\n", out.OvertimeBins, plan.NumUses())
	fmt.Printf("total incentive cost:   $%.2f\n", out.Spent)

	// Individual dispatch comparison: one task per bin, repeated until the
	// single-bin reliability compounds past the target.
	b1 := cal.Bins.At(0)
	reps := 0
	for rel := 0.0; rel < reliability; reps++ {
		rel = 1 - pow(1-b1.Confidence, reps+1)
	}
	naive := float64(numTiles) * float64(reps) * b1.Cost
	fmt.Printf("individual dispatch:    $%.2f — SLADE saves %.1f%%\n",
		naive, 100*(1-sum.Cost/naive))
}

func pow(base float64, exp int) float64 {
	out := 1.0
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
