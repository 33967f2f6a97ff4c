// Ablation: quantify what each ingredient of the paper's method buys,
// on a live model build — space-filling LHS sampling vs uniform random
// sampling, and the RBF model vs the linear baseline of §4.2 on the same
// samples.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"predperf"
	"predperf/internal/design"
	"predperf/internal/rbf"
	"predperf/internal/sample"
)

func main() {
	log.SetFlags(0)
	const bench = "parser"
	const size = 70

	ev, err := predperf.NewSimEvaluator(bench, 50_000)
	if err != nil {
		log.Fatal(err)
	}
	ts, err := predperf.NewTestSet(context.Background(), ev, nil, 30, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ablation on %s: %d training points, %d test points\n\n", bench, size, len(ts.Configs))

	// Full method.
	m, err := predperf.BuildModel(ev, size, predperf.Options{})
	if err != nil {
		log.Fatal(err)
	}
	full := m.Validate(ts)
	fmt.Printf("%-38s mean %5.2f%%  max %5.2f%%\n", "RBF + best-discrepancy LHS (paper)", full.Mean, full.Max)

	// Linear baseline on the identical sample.
	lm, err := predperf.BuildLinear(ev, size, predperf.Options{})
	if err != nil {
		log.Fatal(err)
	}
	lin := lm.Validate(ts)
	fmt.Printf("%-38s mean %5.2f%%  max %5.2f%%\n", "linear model, same sample (§4.2)", lin.Mean, lin.Max)

	// RBF on a uniform random (non-space-filling) sample.
	space := design.PaperSpace()
	rng := rand.New(rand.NewSource(123))
	raw := sample.UniformRandom(space, size, rng)
	xs := make([][]float64, len(raw))
	ys := make([]float64, len(raw))
	for i, p := range raw {
		cfg := space.Decode(p, size)
		xs[i] = space.Encode(cfg)
		ys[i], _ = ev.EvalRan(cfg)
	}
	rndFit, err := rbf.Fit(xs, ys, rbf.Options{})
	if err != nil {
		log.Fatal(err)
	}
	var sum, max float64
	for i, cfg := range ts.Configs {
		e := 100 * abs(rndFit.Predict(space.Encode(cfg))-ts.Actual[i]) / ts.Actual[i]
		sum += e
		if e > max {
			max = e
		}
	}
	fmt.Printf("%-38s mean %5.2f%%  max %5.2f%%\n", "RBF + uniform random sampling", sum/float64(len(ts.Configs)), max)

	fmt.Printf("\nLHS discrepancy of the paper sample: %.5f\n", m.Discrepancy)
	fmt.Printf("RBF centers selected: %d of %d sample points\n", m.Fit.NumCenters(), size)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
