// Package predperf is a reproduction of "A Predictive Performance Model
// for Superscalar Processors" (Joseph, Vaswani, Thazhuthaveetil; MICRO
// 2006): empirical non-linear (RBF network) models that predict
// superscalar processor CPI across a 9-parameter microarchitectural
// design space, trained on a small number of cycle-level simulations at
// design points chosen by latin hypercube sampling with the best
// L2-star discrepancy.
//
// The package re-exports the stable surface of the internal packages:
//
//   - the Table 1 design space and its encode/decode machinery,
//   - the trace-driven out-of-order superscalar simulator and its
//     synthetic SPEC-like benchmark workloads,
//   - BuildModel / BuildLinear, the model-construction procedures, and
//   - test-set generation and error metrics for validation.
//
// Quickstart:
//
//	ev, _ := predperf.NewSimEvaluator("mcf", 100_000)
//	model, _ := predperf.BuildModel(ev, 90, predperf.Options{})
//	cpi := model.PredictConfig(predperf.Config{
//	    PipeDepth: 12, ROBSize: 96, IQSize: 48, LSQSize: 48,
//	    L2SizeKB: 2048, L2Lat: 10, IL1SizeKB: 32, DL1SizeKB: 32, DL1Lat: 2,
//	})
//
// See examples/ for runnable programs and DESIGN.md for the full system
// inventory.
package predperf

import (
	"context"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/search"
	"predperf/internal/sim"
	"predperf/internal/trace"
)

// Config is a concrete processor configuration (natural units).
type Config = design.Config

// Point is a normalized design point in the unit hypercube.
type Point = design.Point

// Space is a microarchitectural design space.
type Space = design.Space

// PaperSpace returns the paper's Table 1 modeling space.
func PaperSpace() *Space { return design.PaperSpace() }

// TestSpace returns the paper's Table 2 restricted validation space.
func TestSpace() *Space { return design.TestSpace() }

// Evaluator produces CPI at concrete design points: one value per
// configuration, in input order, or an error and no values.
type Evaluator = core.Evaluator

// FuncEvaluator adapts a plain function into an Evaluator.
type FuncEvaluator = core.FuncEvaluator

// SimEvaluator evaluates design points with the cycle-level simulator,
// memoizing by configuration.
type SimEvaluator = core.SimEvaluator

// NewSimEvaluator builds a simulator-backed evaluator for one of the
// benchmark workloads (see Benchmarks).
func NewSimEvaluator(benchmark string, traceLen int) (*SimEvaluator, error) {
	return core.NewSimEvaluator(benchmark, traceLen)
}

// Benchmarks lists the eight SPEC CPU2000-like synthetic workloads the
// paper evaluates.
func Benchmarks() []string { return trace.Names() }

// ExtraBenchmarks lists the additional workload profiles provided beyond
// the paper's eight (gzip, gcc, bzip2, vpr).
func ExtraBenchmarks() []string { return trace.ExtraNames() }

// Options configures model building.
type Options = core.Options

// Model is a fitted RBF-network CPI model.
type Model = core.Model

// LinearModel is the linear-regression baseline of §4.2.
type LinearModel = core.LinearModel

// BuildModel runs the paper's BuildRBFModel procedure at one sample
// size: best-discrepancy latin hypercube sampling, simulation, and RBF
// fitting with regression-tree centers and AICc subset selection.
func BuildModel(ev Evaluator, sampleSize int, opt Options) (*Model, error) {
	return core.BuildRBFModel(ev, sampleSize, opt)
}

// BuildModelCtx is BuildModel with context propagation: when ctx carries
// an obs.Trace (internal/obs.WithTrace), every build stage records
// parent/child spans on it for the Chrome trace export. The built model
// is bit-identical with or without an active trace.
func BuildModelCtx(ctx context.Context, ev Evaluator, sampleSize int, opt Options) (*Model, error) {
	return core.BuildRBFModelCtx(ctx, ev, sampleSize, opt)
}

// BuildLinear builds the baseline linear model on an identical sample.
func BuildLinear(ev Evaluator, sampleSize int, opt Options) (*LinearModel, error) {
	return core.BuildLinearModel(ev, sampleSize, opt)
}

// BuildLinearCtx is BuildLinear with context propagation (see
// BuildModelCtx).
func BuildLinearCtx(ctx context.Context, ev Evaluator, sampleSize int, opt Options) (*LinearModel, error) {
	return core.BuildLinearModelCtx(ctx, ev, sampleSize, opt)
}

// TestSet is an independent random validation set.
type TestSet = core.TestSet

// NewTestSet draws and simulates n random points (Table 2 space when
// space is nil), or returns the evaluator's error.
func NewTestSet(ctx context.Context, ev Evaluator, space *Space, n int, seed int64) (*TestSet, error) {
	return core.NewTestSetWorkers(ctx, ev, space, n, seed, 0)
}

// ErrorStats are mean/max/std absolute percentage CPI errors.
type ErrorStats = core.ErrorStats

// BuildResult pairs a model with its validation stats.
type BuildResult = core.BuildResult

// BuildToAccuracy iterates sample sizes until the target mean error is
// reached (step 6 of the paper's procedure).
func BuildToAccuracy(ev Evaluator, sizes []int, targetMeanPct float64, ts *TestSet, opt Options) ([]BuildResult, error) {
	return core.BuildToAccuracy(ev, sizes, targetMeanPct, ts, opt)
}

// SimConfig is the full simulator machine description.
type SimConfig = sim.Config

// SimResult is a simulation run's statistics.
type SimResult = sim.Result

// SearchOptions configures a model-guided design-space search.
type SearchOptions = search.Options

// SearchResult is a simulator-verified search outcome.
type SearchResult = search.Result

// Minimize runs model-guided design-space exploration: the model ranks
// an enumeration of candidate configurations, and the best-predicted
// shortlist is verified with real simulation (one Eval call under ctx)
// before a winner is chosen.
func Minimize(ctx context.Context, model *Model, ev Evaluator, opt SearchOptions) (*SearchResult, error) {
	return search.Minimize(ctx, model, ev, opt)
}

// EnumerateGrid lists candidate configurations on a grid over a design
// space (the paper space when space is nil).
func EnumerateGrid(space *Space, gridLevels int) []Config {
	return search.EnumerateGrid(space, gridLevels)
}

// SimFromDesign expands a design configuration into the full simulator
// machine description (fixed context + the nine varied parameters).
func SimFromDesign(cfg Config) SimConfig { return sim.FromDesign(cfg) }

// Simulate runs the cycle-level simulator for a design configuration on
// a named benchmark workload and returns the detailed statistics. The
// first fifth of the trace warms the caches and predictors without being
// counted, matching the methodology of the model-building evaluators.
func Simulate(cfg Config, benchmark string, traceLen int) (SimResult, error) {
	tr, err := trace.Cached(benchmark, traceLen)
	if err != nil {
		return SimResult{}, err
	}
	sc := sim.FromDesign(cfg)
	sc.WarmupInsts = traceLen / 5
	return sim.Run(sc, tr), nil
}
