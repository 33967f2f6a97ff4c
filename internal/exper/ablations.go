package exper

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/rbf"
	"predperf/internal/rtree"
	"predperf/internal/sample"
)

// Ablations quantifies the contribution of the paper's three method
// ingredients called out in DESIGN.md, on one benchmark at the full
// sample size: space-filling LHS sampling, AICc subset selection, and
// the per-dimension radii of Eq. 8.
type Ablations struct {
	Benchmark  string
	SampleSize int

	// Mean % error on the shared (Table 2, interior) test set.
	Full         float64 // LHS + selection + scaled radii (the paper's method)
	RandomSample float64 // uniform random sample instead of best-of-K LHS
	AllCenters   float64 // no AICc subset selection
	ForwardSel   float64 // greedy forward selection instead of tree-ordered
	GlobalRadius float64 // fixed isotropic radius instead of α·size
	FullCenters  int
	AllCentersN  int
	ForwardSelN  int

	// Mean % error on a full-space (Table 1 ranges) test set, where the
	// space-filling property of LHS matters most: interior test points
	// cannot reward edge coverage.
	FullWide         float64
	RandomSampleWide float64
}

// RunAblations builds the method variants and validates each on the same
// test set.
func RunAblations(r *Runner, bench string) (*Ablations, error) {
	size := r.Scale.FullSize
	ev, err := r.Evaluator(bench)
	if err != nil {
		return nil, err
	}
	ts, err := r.TestSet(bench)
	if err != nil {
		return nil, err
	}
	space := design.PaperSpace()
	out := &Ablations{Benchmark: bench, SampleSize: size}

	// A second test set spanning the full Table 1 ranges, where edge
	// coverage matters.
	wide, err := core.NewTestSetWorkers(context.TODO(), ev, space, r.Scale.TestPoints, r.Scale.Seed+913, 0)
	if err != nil {
		return nil, err
	}

	// Shared helper: validate an rbf.Network against a test set.
	validateOn := func(net *rbf.Network, set *core.TestSet) float64 {
		var sum float64
		for i, cfg := range set.Configs {
			p := net.Predict(space.Encode(cfg))
			sum += 100 * abs(p-set.Actual[i]) / set.Actual[i]
		}
		return sum / float64(len(set.Configs))
	}
	validate := func(net *rbf.Network) float64 { return validateOn(net, ts) }

	// Full method. The cached model provides the tree/center diagnostics;
	// the reported error averages over the same number of independent
	// sampling seeds as the random-sampling arm below, so neither side
	// benefits from a lucky draw.
	m, err := r.Model(bench, size)
	if err != nil {
		return nil, err
	}
	out.FullCenters = m.Fit.NumCenters()
	out.Full = m.Validate(ts).Mean
	out.FullWide = validateOn(m.Fit.Net, wide)
	for k := int64(1); k < 3; k++ {
		mk, err := core.BuildRBFModel(ev, size, core.Options{
			LHSCandidates: r.Scale.LHSCandidates, RBF: r.Scale.RBF, Seed: r.Scale.Seed + k,
		})
		if err != nil {
			return nil, err
		}
		out.Full += mk.Validate(ts).Mean
		out.FullWide += validateOn(mk.Fit.Net, wide)
	}
	out.Full /= 3
	out.FullWide /= 3

	// (a) Uniform random sampling instead of discrepancy-best LHS.
	// Single draws are noisy, so average a few independent samples.
	const seeds = 3
	var randSum, randWide float64
	for k := int64(0); k < seeds; k++ {
		rng := rand.New(rand.NewSource(r.Scale.Seed + 31 + k))
		raw := sample.UniformRandom(space, size, rng)
		xs := make([][]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, p := range raw {
			cfg := space.Decode(p, size)
			xs[i] = space.Encode(cfg)
			ys[i], _ = ev.EvalRan(cfg)
		}
		randFit, err := rbf.Fit(xs, ys, r.Scale.RBF)
		if err != nil {
			return nil, err
		}
		randSum += validate(randFit.Net)
		randWide += validateOn(randFit.Net, wide)
	}
	out.RandomSample = randSum / seeds
	out.RandomSampleWide = randWide / seeds

	// (b) All tree-node centers, no subset selection. Reuse the full
	// model's training sample and winning method parameters.
	fullXs := make([][]float64, len(m.Points))
	for i, p := range m.Points {
		fullXs[i] = p
	}
	tree := rtree.Build(fullXs, m.Responses, m.Fit.PMin)
	allNet, _, _ := rbf.FitTreeAllCenters(tree, fullXs, m.Responses, m.Fit.Alpha, 0.02)
	out.AllCenters = validate(allNet)
	out.AllCentersN = allNet.M()

	// (c) Greedy forward selection instead of the tree-ordered search.
	fwdNet, _, _ := rbf.FitTreeForwardSelection(tree, fullXs, m.Responses, m.Fit.Alpha, 0.02)
	out.ForwardSel = validate(fwdNet)
	out.ForwardSelN = fwdNet.M()

	// (d) Fixed isotropic radius instead of Eq. 8.
	globNet, _, _ := rbf.FitTreeGlobalRadius(tree, fullXs, m.Responses)
	out.GlobalRadius = validate(globNet)

	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func (a *Ablations) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (%s, sample size %d): mean CPI error %% (interior / full-space test sets)\n", a.Benchmark, a.SampleSize)
	fmt.Fprintf(&b, "  %-36s %6.2f / %-6.2f (%d centers)\n", "full method (LHS+AICc+scaled radii)", a.Full, a.FullWide, a.FullCenters)
	fmt.Fprintf(&b, "  %-36s %6.2f / %-6.2f\n", "uniform random sampling", a.RandomSample, a.RandomSampleWide)
	fmt.Fprintf(&b, "  %-36s %6.2f          (%d centers)\n", "all tree centers (no selection)", a.AllCenters, a.AllCentersN)
	fmt.Fprintf(&b, "  %-36s %6.2f          (%d centers)\n", "greedy forward selection", a.ForwardSel, a.ForwardSelN)
	fmt.Fprintf(&b, "  %-36s %6.2f\n", "fixed global radius (best of grid)", a.GlobalRadius)
	return b.String()
}
