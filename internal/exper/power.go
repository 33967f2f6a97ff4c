package exper

import (
	"context"
	"fmt"
	"strings"

	"predperf/internal/core"
)

// PowerTable extends Table 3 to the power-oriented metrics of §6: for
// each benchmark it builds an energy-delay-product model from the same
// simulations as the CPI model (the evaluator memoizes full simulator
// results, so the EDP view costs no extra runs) and validates both.
type PowerTable struct {
	SampleSize int
	Rows       []PowerRow
}

// PowerRow is one benchmark's CPI and EDP model accuracy.
type PowerRow struct {
	Benchmark  string
	CPIMean    float64
	EDPMean    float64
	EDPMax     float64
	EDPCenters int
}

// RunPowerTable builds EDP models for every benchmark at the full sample
// size.
func RunPowerTable(r *Runner) (*PowerTable, error) {
	out := &PowerTable{SampleSize: r.Scale.FullSize}
	for _, bench := range r.Scale.Benchmarks {
		m, err := r.Model(bench, r.Scale.FullSize)
		if err != nil {
			return nil, err
		}
		ts, err := r.TestSet(bench)
		if err != nil {
			return nil, err
		}
		ev, err := r.Evaluator(bench)
		if err != nil {
			return nil, err
		}
		edpEv := ev.WithMetric(core.MetricEDP)
		edpM, err := core.BuildRBFModel(edpEv, r.Scale.FullSize, core.Options{
			LHSCandidates: r.Scale.LHSCandidates, RBF: r.Scale.RBF, Seed: r.Scale.Seed,
		})
		if err != nil {
			return nil, err
		}
		edpTS, err := core.NewTestSetWorkers(context.TODO(), edpEv, nil, r.Scale.TestPoints, r.Scale.Seed+77, 0)
		if err != nil {
			return nil, err
		}
		est := edpM.Validate(edpTS)
		out.Rows = append(out.Rows, PowerRow{
			Benchmark:  bench,
			CPIMean:    m.Validate(ts).Mean,
			EDPMean:    est.Mean,
			EDPMax:     est.Max,
			EDPCenters: edpM.Fit.NumCenters(),
		})
	}
	return out, nil
}

func (t *PowerTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Power extension: EDP models from the same simulations (sample size %d)\n", t.SampleSize)
	fmt.Fprintf(&b, "%-10s %10s %10s %9s %9s\n", "benchmark", "cpi mean%", "edp mean%", "edp max%", "centers")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %10.1f %10.1f %9.1f %9d\n", r.Benchmark, r.CPIMean, r.EDPMean, r.EDPMax, r.EDPCenters)
	}
	return b.String()
}

// Extended runs the Table 3 protocol on the four additional (non-paper)
// workload profiles, checking the method generalizes past the workloads
// it was tuned on.
type Extended struct {
	SampleSize int
	Rows       []Table3Row
}

// RunExtended validates models for the extra workloads.
func RunExtended(r *Runner, benches []string) (*Extended, error) {
	out := &Extended{SampleSize: r.Scale.FullSize}
	for _, bench := range benches {
		m, err := r.Model(bench, r.Scale.FullSize)
		if err != nil {
			return nil, err
		}
		ts, err := r.TestSet(bench)
		if err != nil {
			return nil, err
		}
		st := m.Validate(ts)
		out.Rows = append(out.Rows, Table3Row{
			Benchmark: bench,
			Mean:      st.Mean, Max: st.Max, Std: st.Std,
			Centers: m.Fit.NumCenters(), PMin: m.Fit.PMin, Alpha: m.Fit.Alpha,
		})
	}
	return out, nil
}

func (t *Extended) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extended workloads (beyond the paper's eight, sample size %d)\n", t.SampleSize)
	fmt.Fprintf(&b, "%-10s %7s %7s %7s   %7s\n", "benchmark", "mean%", "max%", "std%", "centers")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %7.1f %7.1f %7.1f   %7d\n", r.Benchmark, r.Mean, r.Max, r.Std, r.Centers)
	}
	return b.String()
}
