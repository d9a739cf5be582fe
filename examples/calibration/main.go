// Calibration loop: Section 3.1 of the paper notes that real marketplaces
// learn the (cardinality, confidence, cost) menu from testing task bins
// whose ground truth is known. This example runs that loop explicitly and
// shows how calibration error propagates — or rather, fails to propagate —
// into delivered reliability:
//
//  1. Probe the simulated market at every cardinality.
//
//  2. Fit and print the confidence curve (counting + regression +
//     isotonic smoothing).
//
//  3. Solve a decomposition on the *calibrated* menu.
//
//  4. Execute the plan on the *true* market and compare delivered
//     reliability against the target.
//
//     go run ./examples/calibration
package main

import (
	"fmt"
	"log"
	"math/rand"

	slade "repro"
)

const (
	numTasks = 5_000
	target   = 0.95
	seed     = 99
)

func main() {
	platform := slade.NewSMICPlatform(seed)

	cal, err := slade.Calibrate(platform, slade.CalibrationOptions{
		MaxCardinality: 16,
		Assignments:    150,
		Pricing:        slade.Pricing{Floor: 0.030, Slope: 0.070},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("regression: confidence ≈ %.4f %+.5f × cardinality\n",
		cal.RegressionA, cal.RegressionB)
	fmt.Printf("%-12s%12s%12s%12s%12s\n", "cardinality", "probed", "smoothed", "true", "overtime")
	for i, e := range cal.Raw {
		truth := platform.TrueConfidence(e.Cardinality, e.Pay, 2)
		fmt.Printf("%-12d%12.3f%12.3f%12.3f%11.0f%%\n",
			e.Cardinality, e.Confidence, cal.Smoothed[i], truth, 100*e.OvertimeRate)
	}

	in, err := slade.NewHomogeneous(cal.Bins, numTasks, target)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := slade.Decompose(in)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := plan.Summarize(cal.Bins)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplan on calibrated menu: %s\n", sum)

	// Execute against the true market several times and average.
	rng := rand.New(rand.NewSource(seed))
	truth := make([]bool, numTasks)
	for i := range truth {
		truth[i] = rng.Float64() < 0.5
	}
	const runs = 5
	sumRel, sumCost := 0.0, 0.0
	for r := 0; r < runs; r++ {
		out, err := slade.Execute(platform, in, plan, truth, slade.ExecutionOptions{MaxRetries: -1, Difficulty: 2})
		if err != nil {
			log.Fatal(err)
		}
		sumRel += out.EmpiricalReliability
		sumCost += out.Spent
	}
	fmt.Printf("delivered reliability over %d runs: %.4f (target %.2f)\n",
		runs, sumRel/runs, target)
	fmt.Printf("mean executed cost: $%.2f\n", sumCost/runs)
}
