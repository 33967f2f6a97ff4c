package exper

import (
	"fmt"
	"math/rand"
	"strings"

	"predperf/internal/design"
	"predperf/internal/par"
	"predperf/internal/plot"
	"predperf/internal/sample"
)

// Figure1 is the CPI response surface over (il1_size, L2_lat) for one
// benchmark with the other seven parameters pinned mid-range — the
// motivating non-linearity example of §1.
type Figure1 struct {
	Benchmark string
	IL1KB     []int
	L2Lat     []int
	CPI       [][]float64 // [il1][lat]
}

// RunFigure1 simulates the grid, fanning the independent cells out
// across the runner's workers into fixed (row, column) slots.
func RunFigure1(r *Runner, bench string) (*Figure1, error) {
	ev, err := r.Evaluator(bench)
	if err != nil {
		return nil, err
	}
	base := r.midConfig()
	out := &Figure1{Benchmark: bench, IL1KB: r.Scale.GridIL1, L2Lat: r.Scale.GridL2Lat}
	out.CPI = make([][]float64, len(out.IL1KB))
	for i := range out.CPI {
		out.CPI[i] = make([]float64, len(out.L2Lat))
	}
	cols := len(out.L2Lat)
	par.For(r.Workers(), len(out.IL1KB)*cols, func(c int) {
		i, j := c/cols, c%cols
		cfg := base
		cfg.IL1SizeKB = out.IL1KB[i]
		cfg.L2Lat = out.L2Lat[j]
		out.CPI[i][j], _ = ev.EvalRan(cfg)
	})
	return out, nil
}

func (f *Figure1) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: simulated CPI response surface, %s (rows: il1 KB, cols: L2 lat)\n", f.Benchmark)
	fmt.Fprintf(&b, "%8s", "il1\\lat")
	for _, lat := range f.L2Lat {
		fmt.Fprintf(&b, " %7d", lat)
	}
	b.WriteString("\n")
	for i, il1 := range f.IL1KB {
		fmt.Fprintf(&b, "%7dK", il1)
		for j := range f.L2Lat {
			fmt.Fprintf(&b, " %7.3f", f.CPI[i][j])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Figure2 is the best obtained L2-star discrepancy versus sample size:
// its knee motivates the choice of sample size (§2.2).
type Figure2 struct {
	Sizes       []int
	Discrepancy []float64
	Candidates  int
}

// RunFigure2 scores best-of-K latin hypercube samples across sizes.
func RunFigure2(r *Runner) *Figure2 {
	space := design.PaperSpace()
	rng := rand.New(rand.NewSource(r.Scale.Seed))
	out := &Figure2{Candidates: r.Scale.LHSCandidates}
	sizes := []int{10, 20, 30, 50, 70, 90, 110, 140, 170, 200}
	for _, n := range sizes {
		_, d := sample.BestLHS(space, n, r.Scale.LHSCandidates, rng)
		out.Sizes = append(out.Sizes, n)
		out.Discrepancy = append(out.Discrepancy, d)
	}
	return out
}

func (f *Figure2) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: best L2-star discrepancy vs number of simulations (best of %d draws)\n", f.Candidates)
	fmt.Fprintf(&b, "%-8s %12s\n", "size", "discrepancy")
	for i, n := range f.Sizes {
		fmt.Fprintf(&b, "%-8d %12.5f\n", n, f.Discrepancy[i])
	}
	xs := make([]float64, len(f.Sizes))
	for i, n := range f.Sizes {
		xs[i] = float64(n)
	}
	b.WriteString(plot.Lines("", xs, map[string][]float64{"discrepancy": f.Discrepancy}, 56, 10))
	return b.String()
}

// Figure4Point is the model error at one sample size.
type Figure4Point struct {
	SampleSize     int
	Mean, Std, Max float64
}

// Figure4 is mean/std/max error versus sample size for selected
// benchmarks (paper Figure 4: mcf and twolf).
type Figure4 struct {
	Curves map[string][]Figure4Point
	Order  []string
}

// RunFigure4 sweeps sample sizes for the named benchmarks. Every
// (benchmark, size) cell is independent — the runner's single-flight
// caches keep concurrent cells from duplicating evaluator or test-set
// construction — so the whole cross product fans out at once and the
// curves are reassembled in sweep order.
func RunFigure4(r *Runner, benches ...string) (*Figure4, error) {
	out := &Figure4{Curves: map[string][]Figure4Point{}, Order: benches}
	cells := crossBenchSizes(benches, r.Scale.SampleSizes)
	pts, err := par.MapErr(r.Workers(), cells, func(_ int, c benchSize) (Figure4Point, error) {
		ts, err := r.TestSet(c.bench)
		if err != nil {
			return Figure4Point{}, err
		}
		m, err := r.Model(c.bench, c.size)
		if err != nil {
			return Figure4Point{}, err
		}
		st := m.Validate(ts)
		return Figure4Point{SampleSize: c.size, Mean: st.Mean, Std: st.Std, Max: st.Max}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		out.Curves[c.bench] = append(out.Curves[c.bench], pts[i])
	}
	return out, nil
}

func (f *Figure4) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: mean, std, and max CPI error vs sample size\n")
	for _, bench := range f.Order {
		fmt.Fprintf(&b, "%s:\n  %-6s %8s %8s %8s\n", bench, "size", "mean%", "std%", "max%")
		for _, p := range f.Curves[bench] {
			fmt.Fprintf(&b, "  %-6d %8.1f %8.1f %8.1f\n", p.SampleSize, p.Mean, p.Std, p.Max)
		}
	}
	if len(f.Order) > 0 {
		first := f.Curves[f.Order[0]]
		xs := make([]float64, len(first))
		for i, p := range first {
			xs[i] = float64(p.SampleSize)
		}
		series := map[string][]float64{}
		for _, bench := range f.Order {
			var means []float64
			for _, p := range f.Curves[bench] {
				means = append(means, p.Mean)
			}
			series[bench+" mean%"] = means
		}
		b.WriteString(plot.Lines("", xs, series, 56, 10))
	}
	return b.String()
}

// Figure5 is the distribution of parameter values at which tree splits
// occur, for one benchmark's full-size model.
type Figure5 struct {
	Benchmark string
	// Splits lists every bifurcation (parameter name, natural value).
	Splits []SplitInfo
	// PerParam counts splits by parameter.
	PerParam map[string]int
}

// RunFigure5 collects the split distribution.
func RunFigure5(r *Runner, bench string) (*Figure5, error) {
	m, err := r.Model(bench, r.Scale.FullSize)
	if err != nil {
		return nil, err
	}
	space := design.PaperSpace()
	out := &Figure5{Benchmark: bench, PerParam: map[string]int{}}
	out.Splits = splitInfos(space, m.Fit.Tree, len(m.Fit.Tree.Splits))
	for _, s := range out.Splits {
		out.PerParam[s.Parameter]++
	}
	return out, nil
}

func (f *Figure5) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: parameter values in tree splitting for %s (%d splits)\n", f.Benchmark, len(f.Splits))
	space := design.PaperSpace()
	for _, p := range space.Params {
		var vals []string
		for _, s := range f.Splits {
			if s.Parameter == p.Name {
				vals = append(vals, fmt.Sprintf("%.3g", s.Value))
			}
		}
		fmt.Fprintf(&b, "%-12s (%2d): %s\n", p.Name, f.PerParam[p.Name], strings.Join(vals, " "))
	}
	return b.String()
}

// Figure6 compares simulated and model-predicted CPI trends over the
// (il1_size, L2_lat) interaction for one benchmark (paper Figure 6,
// vortex).
type Figure6 struct {
	Benchmark string
	IL1KB     []int
	L2Lat     []int
	Simulated [][]float64
	Predicted [][]float64
}

// RunFigure6 evaluates the grid against both the simulator and the
// full-size model, fanning the independent cells out across workers.
func RunFigure6(r *Runner, bench string) (*Figure6, error) {
	ev, err := r.Evaluator(bench)
	if err != nil {
		return nil, err
	}
	m, err := r.Model(bench, r.Scale.FullSize)
	if err != nil {
		return nil, err
	}
	base := r.midConfig()
	out := &Figure6{Benchmark: bench, IL1KB: r.Scale.GridIL1, L2Lat: r.Scale.GridL2Lat}
	out.Simulated = make([][]float64, len(out.IL1KB))
	out.Predicted = make([][]float64, len(out.IL1KB))
	for i := range out.IL1KB {
		out.Simulated[i] = make([]float64, len(out.L2Lat))
		out.Predicted[i] = make([]float64, len(out.L2Lat))
	}
	cols := len(out.L2Lat)
	par.For(r.Workers(), len(out.IL1KB)*cols, func(c int) {
		i, j := c/cols, c%cols
		cfg := base
		cfg.IL1SizeKB = out.IL1KB[i]
		cfg.L2Lat = out.L2Lat[j]
		out.Simulated[i][j], _ = ev.EvalRan(cfg)
		out.Predicted[i][j] = m.PredictConfig(cfg)
	})
	return out, nil
}

// TrendAgreement reports the fraction of adjacent-cell CPI deltas whose
// sign the model predicts correctly — the "closely mirrors the trends"
// criterion of §4.1.
func (f *Figure6) TrendAgreement() float64 {
	agree, total := 0, 0
	sign := func(x float64) int {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}
	for i := range f.Simulated {
		for j := 1; j < len(f.Simulated[i]); j++ {
			ds := f.Simulated[i][j] - f.Simulated[i][j-1]
			dp := f.Predicted[i][j] - f.Predicted[i][j-1]
			if sign(ds) == sign(dp) || ds == 0 {
				agree++
			}
			total++
		}
	}
	for j := range f.L2Lat {
		for i := 1; i < len(f.Simulated); i++ {
			ds := f.Simulated[i][j] - f.Simulated[i-1][j]
			dp := f.Predicted[i][j] - f.Predicted[i-1][j]
			if sign(ds) == sign(dp) || ds == 0 {
				agree++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(agree) / float64(total)
}

func (f *Figure6) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: simulated (S) vs predicted (P) CPI trends, %s\n", f.Benchmark)
	fmt.Fprintf(&b, "%8s", "il1\\lat")
	for _, lat := range f.L2Lat {
		fmt.Fprintf(&b, "  %6d ", lat)
	}
	b.WriteString("\n")
	for i, il1 := range f.IL1KB {
		fmt.Fprintf(&b, "%6dKS", il1)
		for j := range f.L2Lat {
			fmt.Fprintf(&b, "  %7.3f", f.Simulated[i][j])
		}
		fmt.Fprintf(&b, "\n%6dKP", il1)
		for j := range f.L2Lat {
			fmt.Fprintf(&b, "  %7.3f", f.Predicted[i][j])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "trend agreement: %.0f%% of adjacent deltas match sign\n", 100*f.TrendAgreement())
	return b.String()
}

// Figure7Point pairs linear and RBF errors at one sample size.
type Figure7Point struct {
	SampleSize int
	RBFMean    float64
	LinearMean float64
}

// Figure7 compares the predictive accuracy of linear and RBF network
// models across sample sizes for selected benchmarks (§4.2).
type Figure7 struct {
	Curves map[string][]Figure7Point
	Order  []string
}

// RunFigure7 builds both model families on identical samples, fanning
// the (benchmark, size) cross product out across workers.
func RunFigure7(r *Runner, benches ...string) (*Figure7, error) {
	out := &Figure7{Curves: map[string][]Figure7Point{}, Order: benches}
	cells := crossBenchSizes(benches, r.Scale.SampleSizes)
	pts, err := par.MapErr(r.Workers(), cells, func(_ int, c benchSize) (Figure7Point, error) {
		ts, err := r.TestSet(c.bench)
		if err != nil {
			return Figure7Point{}, err
		}
		m, err := r.Model(c.bench, c.size)
		if err != nil {
			return Figure7Point{}, err
		}
		lm, err := r.Linear(c.bench, c.size)
		if err != nil {
			return Figure7Point{}, err
		}
		return Figure7Point{
			SampleSize: c.size,
			RBFMean:    m.Validate(ts).Mean,
			LinearMean: lm.Validate(ts).Mean,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		out.Curves[c.bench] = append(out.Curves[c.bench], pts[i])
	}
	return out, nil
}

func (f *Figure7) String() string {
	var b strings.Builder
	b.WriteString("Figure 7: linear vs RBF network predictive accuracy (mean CPI error %)\n")
	for _, bench := range f.Order {
		fmt.Fprintf(&b, "%s:\n  %-6s %8s %8s\n", bench, "size", "rbf%", "linear%")
		for _, p := range f.Curves[bench] {
			fmt.Fprintf(&b, "  %-6d %8.1f %8.1f\n", p.SampleSize, p.RBFMean, p.LinearMean)
		}
		xs := make([]float64, len(f.Curves[bench]))
		rbfS := make([]float64, len(xs))
		linS := make([]float64, len(xs))
		for i, p := range f.Curves[bench] {
			xs[i] = float64(p.SampleSize)
			rbfS[i] = p.RBFMean
			linS[i] = p.LinearMean
		}
		b.WriteString(plot.Lines("", xs, map[string][]float64{"rbf": rbfS, "linear": linS}, 56, 9))
	}
	return b.String()
}
