package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"predperf/internal/design"
)

func TestErrorStatsSkipsZeroActuals(t *testing.T) {
	// A zero true response has no defined percentage error; before the
	// fix it produced Inf that poisoned Mean/Max/Std.
	pred := []float64{1.0, 2.0, 0.5}
	actual := []float64{1.0, 0.0, 1.0}
	s := errorStats(pred, actual)
	if s.N != 2 {
		t.Fatalf("N = %d, want 2 (zero-actual pair skipped)", s.N)
	}
	if math.IsInf(s.Mean, 0) || math.IsNaN(s.Mean) ||
		math.IsInf(s.Max, 0) || math.IsNaN(s.Max) ||
		math.IsInf(s.Std, 0) || math.IsNaN(s.Std) {
		t.Fatalf("stats poisoned by zero actual: %+v", s)
	}
	// Remaining pairs: 0%% and 50%% error → mean 25, max 50, std 25.
	if math.Abs(s.Mean-25) > 1e-12 || math.Abs(s.Max-50) > 1e-12 || math.Abs(s.Std-25) > 1e-12 {
		t.Fatalf("stats over surviving pairs wrong: %+v", s)
	}
}

func TestErrorStatsAllZeroActuals(t *testing.T) {
	s := errorStats([]float64{1, 2}, []float64{0, 0})
	if s != (ErrorStats{}) {
		t.Fatalf("want zero-value stats when every actual is zero, got %+v", s)
	}
}

func TestErrorStatsUnchangedOnCleanInput(t *testing.T) {
	pred := []float64{1.1, 1.9, 3.3}
	actual := []float64{1.0, 2.0, 3.0}
	s := errorStats(pred, actual)
	if s.N != 3 {
		t.Fatalf("N = %d, want 3", s.N)
	}
	// Errors are 10%, 5%, 10% → mean 25/3, max 10.
	if math.Abs(s.Mean-25.0/3) > 1e-9 || math.Abs(s.Max-10) > 1e-9 {
		t.Fatalf("clean-input stats wrong: %+v", s)
	}
}

func TestBuildToAccuracyRejectsBadInputs(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	ts := mustTestSet(t, ev, 10, 3)

	// Nil test set used to panic inside Validate.
	if _, err := BuildToAccuracy(ev, []int{20}, 5, nil, fastOpt()); err == nil ||
		!strings.Contains(err.Error(), "test set") {
		t.Fatalf("want test-set error for nil ts, got %v", err)
	}
	if _, err := BuildToAccuracy(ev, []int{20}, 5, &TestSet{}, fastOpt()); err == nil ||
		!strings.Contains(err.Error(), "test set") {
		t.Fatalf("want test-set error for empty ts, got %v", err)
	}
	if _, err := BuildToAccuracy(nil, []int{20}, 5, ts, fastOpt()); err == nil ||
		!strings.Contains(err.Error(), "evaluator") {
		t.Fatalf("want evaluator error for nil ev, got %v", err)
	}
	if _, err := BuildToAccuracy(ev, nil, 5, ts, fastOpt()); err == nil ||
		!strings.Contains(err.Error(), "sample size") {
		t.Fatalf("want sizes error for empty sizes, got %v", err)
	}

	// And the happy path still works.
	res, err := BuildToAccuracy(ev, []int{20, 30}, 1e9, ts, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results from valid inputs")
	}
}

// TestBuildToAccuracyFromCtxResumeFloor: only sizes strictly above the
// resume floor are built, an exhausted ladder is a structured error,
// and floor 0 reproduces the fresh-start behavior.
func TestBuildToAccuracyFromCtxResumeFloor(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	ts := mustTestSet(t, ev, 10, 3)

	// Floor 20 skips the 15- and 20-point builds; the impossible target
	// forces every eligible size to run.
	res, err := BuildToAccuracyFromCtx(context.Background(), ev, 20, []int{15, 20, 25, 30}, 0, ts, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Model.SampleSize != 25 || res[1].Model.SampleSize != 30 {
		sizes := make([]int, len(res))
		for i, r := range res {
			sizes[i] = r.Model.SampleSize
		}
		t.Fatalf("floor 20 over {15,20,25,30} built sizes %v, want [25 30]", sizes)
	}

	// A ladder with nothing above the floor fails up front, without
	// building anything.
	if _, err := BuildToAccuracyFromCtx(context.Background(), ev, 30, []int{15, 20, 30}, 5, ts, fastOpt()); err == nil ||
		!strings.Contains(err.Error(), "resume floor") {
		t.Fatalf("want resume-floor error for an exhausted ladder, got %v", err)
	}

	// Floor 0 is a fresh start: identical sizes to BuildToAccuracy.
	a, err := BuildToAccuracyFromCtx(context.Background(), ev, 0, []int{15, 20}, 0, ts, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildToAccuracy(ev, []int{15, 20}, 0, ts, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || a[0].Stats.Mean != b[0].Stats.Mean {
		t.Fatalf("floor 0 diverged from BuildToAccuracy: %+v vs %+v", a, b)
	}
}

// TestBuildToAccuracyFromCtxCancel: a cancelled context stops the
// escalation and surfaces ctx.Err.
func TestBuildToAccuracyFromCtxCancel(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	ts := mustTestSet(t, ev, 10, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := BuildToAccuracyFromCtx(ctx, ev, 0, []int{15, 20}, 5, ts, fastOpt())
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled escalation returned err %v, want context.Canceled", err)
	}
	if len(res) != 0 {
		t.Fatalf("pre-cancelled escalation built %d models, want 0", len(res))
	}
}

var errFarmDown = errors.New("farm down")

// failAfter answers syntheticCPI for its first limit configurations and
// fails every later Eval call with errFarmDown.
type failAfter struct {
	limit int64
	n     atomic.Int64
}

func (f *failAfter) Eval(ctx context.Context, cfgs []design.Config) ([]float64, error) {
	if f.n.Add(int64(len(cfgs))) > f.limit {
		return nil, errFarmDown
	}
	return FuncEvaluator(syntheticCPI).Eval(ctx, cfgs)
}

// TestEvalErrorsReachTheCaller: every stage that evaluates returns the
// evaluator's error (matched with errors.Is) instead of a value built on
// missing responses.
func TestEvalErrorsReachTheCaller(t *testing.T) {
	if _, err := NewTestSetWorkers(context.Background(), &failAfter{limit: 5}, nil, 10, 3, 0); !errors.Is(err, errFarmDown) {
		t.Fatalf("NewTestSet over a failing evaluator: err %v, want errFarmDown", err)
	}
	if m, err := BuildRBFModelCtx(context.Background(), &failAfter{limit: 5}, 15, fastOpt()); !errors.Is(err, errFarmDown) || m != nil {
		t.Fatalf("BuildRBFModelCtx over a failing evaluator: model %v, err %v; want no model and errFarmDown", m, err)
	}
	if m, err := BuildLinearModelCtx(context.Background(), &failAfter{limit: 5}, 15, fastOpt()); !errors.Is(err, errFarmDown) || m != nil {
		t.Fatalf("BuildLinearModelCtx over a failing evaluator: model %v, err %v; want no model and errFarmDown", m, err)
	}
}

// TestBuildToAccuracyFromCtxStopsOnEvalError: an evaluator failure at a
// later size ends the escalation with that error, even though an
// earlier size built, while a size that fails for another reason (here
// one too small to build) is skipped as before.
func TestBuildToAccuracyFromCtxStopsOnEvalError(t *testing.T) {
	ts := mustTestSet(t, FuncEvaluator(syntheticCPI), 10, 3)
	ev := &failAfter{limit: 15} // the 15-point sample, nothing more
	res, err := BuildToAccuracyFromCtx(context.Background(), ev, 0, []int{3, 15, 20}, 0, ts, fastOpt())
	if !errors.Is(err, errFarmDown) {
		t.Fatalf("escalation over a farm that fails after one size: err %v, want errFarmDown", err)
	}
	if len(res) != 1 || res[0].Model.SampleSize != 15 {
		t.Fatalf("escalation returned %d results, want the one 15-point build", len(res))
	}
}
