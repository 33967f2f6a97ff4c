package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"predperf/internal/design"
	"predperf/internal/rbf"
)

// syntheticCPI is a smooth, non-linear ground truth with interactions,
// standing in for the simulator in fast unit tests.
func syntheticCPI(c design.Config) float64 {
	l2 := float64(c.L2SizeKB)
	return 0.6 +
		1.5*math.Exp(-l2/1500)*(float64(c.L2Lat)/20) +
		0.5*float64(c.PipeDepth)/24 +
		12/float64(c.ROBSize) +
		0.2*float64(c.DL1Lat)/4*(64/float64(c.DL1SizeKB))*0.2 +
		0.1*(64/float64(c.IL1SizeKB))*0.1
}

// mustTestSet is NewTestSetWorkers over the Table 2 space on all CPUs, failing the test
// on an evaluator error.
func mustTestSet(t testing.TB, ev Evaluator, n int, seed int64) *TestSet {
	t.Helper()
	ts, err := NewTestSetWorkers(context.Background(), ev, nil, n, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// evalOne evaluates one configuration, failing the test on an error.
func evalOne(t testing.TB, ev Evaluator, cfg design.Config) float64 {
	t.Helper()
	vals, err := ev.Eval(context.Background(), []design.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	return vals[0]
}

func fastOpt() Options {
	return Options{
		LHSCandidates: 16,
		RBF:           rbf.Options{PMinGrid: []int{1, 2}, AlphaGrid: []float64{5, 9}},
		Seed:          7,
	}
}

func TestBuildRBFModelOnSyntheticTruth(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	m, err := BuildRBFModel(ev, 80, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if m.SampleSize != 80 || len(m.Points) != 80 || len(m.Responses) != 80 {
		t.Fatalf("model shape wrong: %d points", len(m.Points))
	}
	if m.Discrepancy <= 0 {
		t.Fatalf("discrepancy = %v", m.Discrepancy)
	}
	ts := mustTestSet(t, ev, 50, 3)
	st := m.Validate(ts)
	if st.N != 50 {
		t.Fatalf("validated %d points", st.N)
	}
	if st.Mean > 6 {
		t.Fatalf("mean error %v%% too high on smooth truth", st.Mean)
	}
	if st.Max < st.Mean || st.Std < 0 {
		t.Fatalf("inconsistent stats %+v", st)
	}
}

func TestRBFBeatsLinearOnCurvedTruth(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	opt := fastOpt()
	ts := mustTestSet(t, ev, 50, 5)
	rbfM, err := BuildRBFModel(ev, 90, opt)
	if err != nil {
		t.Fatal(err)
	}
	linM, err := BuildLinearModel(ev, 90, opt)
	if err != nil {
		t.Fatal(err)
	}
	re, le := rbfM.Validate(ts), linM.Validate(ts)
	if re.Mean >= le.Mean {
		t.Fatalf("RBF mean error %v%% not better than linear %v%%", re.Mean, le.Mean)
	}
}

func TestPredictConfigMatchesPredictEncoded(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	m, err := BuildRBFModel(ev, 40, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Configs[7]
	a := m.PredictConfig(cfg)
	b := m.Predict(m.Space.Encode(cfg))
	if a != b {
		t.Fatalf("PredictConfig %v != Predict(Encode) %v", a, b)
	}
}

func TestTrainingInterpolation(t *testing.T) {
	// The fitted model must reproduce its own training responses well.
	ev := FuncEvaluator(syntheticCPI)
	m, err := BuildRBFModel(ev, 60, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i, pt := range m.Points {
		e := 100 * math.Abs(m.Predict(pt)-m.Responses[i]) / m.Responses[i]
		if e > worst {
			worst = e
		}
	}
	if worst > 8 {
		t.Fatalf("worst training error %v%%", worst)
	}
}

func TestBuildToAccuracyStopsAtTarget(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	ts := mustTestSet(t, ev, 40, 11)
	res, err := BuildToAccuracy(ev, []int{20, 40, 80, 120}, 5.0, ts, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no build results")
	}
	last := res[len(res)-1]
	if last.Stats.Mean > 5.0 && last.Model.SampleSize != 120 {
		t.Fatalf("stopped early without reaching target: %+v", last.Stats)
	}
	// Errors should be (weakly) improving overall from first to last.
	if len(res) > 1 && res[len(res)-1].Stats.Mean > res[0].Stats.Mean*1.5 {
		t.Fatalf("error grew substantially with sample size: %v → %v",
			res[0].Stats.Mean, res[len(res)-1].Stats.Mean)
	}
}

func TestErrorStatsKnownValues(t *testing.T) {
	pred := []float64{1.1, 0.9, 2.0}
	act := []float64{1.0, 1.0, 2.0}
	s := errorStats(pred, act)
	if math.Abs(s.Mean-(10+10+0)/3.0) > 1e-9 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if math.Abs(s.Max-10) > 1e-9 {
		t.Fatalf("max = %v", s.Max)
	}
	if s.N != 3 {
		t.Fatalf("n = %d", s.N)
	}
	if z := errorStats(nil, nil); z.N != 0 {
		t.Fatalf("empty stats = %+v", z)
	}
}

func TestSimEvaluatorMemoizes(t *testing.T) {
	ev, err := NewSimEvaluator("equake", 6000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := design.PaperSpace().Decode(mid(design.PaperSpace()), 50)
	a := evalOne(t, ev, cfg)
	n := ev.Simulations()
	b := evalOne(t, ev, cfg)
	if a != b {
		t.Fatalf("non-deterministic evaluation: %v vs %v", a, b)
	}
	if ev.Simulations() != n {
		t.Fatal("repeat evaluation re-simulated")
	}
	if a <= 0 || math.IsNaN(a) {
		t.Fatalf("CPI = %v", a)
	}
}

func TestBuildRBFModelWithSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed build in -short mode")
	}
	ev, err := NewSimEvaluator("ammp", 8000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildRBFModel(ev, 30, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	ts := mustTestSet(t, ev, 15, 21)
	st := m.Validate(ts)
	if math.IsNaN(st.Mean) || st.Mean <= 0 || st.Mean > 60 {
		t.Fatalf("implausible mean error %v%%", st.Mean)
	}
	// Simulation cost: 30 training + 15 test points, all distinct or
	// memoized — never more.
	if ev.Simulations() > 45 {
		t.Fatalf("ran %d simulations, expected ≤ 45", ev.Simulations())
	}
}

func TestBuildRejectsTinySamples(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	if _, err := BuildRBFModel(ev, 2, fastOpt()); err == nil {
		t.Fatal("expected error for tiny sample")
	}
	if _, err := BuildLinearModel(ev, 2, fastOpt()); err == nil {
		t.Fatal("expected error for tiny linear sample")
	}
}

func mid(s *design.Space) design.Point {
	pt := make(design.Point, s.N())
	for i := range pt {
		pt[i] = 0.5
	}
	return pt
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	opt := fastOpt()
	opt.Parallel = 1
	ev, err := NewSimEvaluator("twolf", 6000)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := BuildRBFModel(ev, 25, opt)
	if err != nil {
		t.Fatal(err)
	}
	pt := mid(design.PaperSpace())
	for _, workers := range []int{0, 2, 4, 8} {
		// Fresh evaluator so the parallel path actually simulates.
		ev2, err := NewSimEvaluator("twolf", 6000)
		if err != nil {
			t.Fatal(err)
		}
		opt.Parallel = workers
		opt.RBF.Workers = workers
		par, err := BuildRBFModel(ev2, 25, opt)
		if err != nil {
			t.Fatal(err)
		}
		if par.Discrepancy != serial.Discrepancy {
			t.Fatalf("workers=%d: discrepancy %v != serial %v", workers, par.Discrepancy, serial.Discrepancy)
		}
		for i := range serial.Responses {
			if serial.Responses[i] != par.Responses[i] {
				t.Fatalf("workers=%d: response %d differs: %v vs %v", workers, i, serial.Responses[i], par.Responses[i])
			}
			for k := range serial.Points[i] {
				if serial.Points[i][k] != par.Points[i][k] {
					t.Fatalf("workers=%d: sample point %d differs", workers, i)
				}
			}
		}
		if par.Fit.PMin != serial.Fit.PMin || par.Fit.Alpha != serial.Fit.Alpha {
			t.Fatalf("workers=%d: selected (%d, %v), serial (%d, %v)",
				workers, par.Fit.PMin, par.Fit.Alpha, serial.Fit.PMin, serial.Fit.Alpha)
		}
		if serial.Predict(pt) != par.Predict(pt) {
			t.Fatalf("workers=%d: parallel build produced a different model", workers)
		}
	}
}

func TestEvalAllDeterministicAcrossWorkerCounts(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	space := design.PaperSpace()
	cfgs := make([]design.Config, 40)
	for i := range cfgs {
		pt := make(design.Point, space.N())
		for k := range pt {
			pt[k] = float64((i*7+k*3)%11) / 10
		}
		cfgs[i] = space.Decode(pt, len(cfgs))
	}
	want := make([]float64, len(cfgs))
	if err := evalAll(context.Background(), ev, cfgs, want, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 100} {
		got := make([]float64, len(cfgs))
		if err := evalAll(context.Background(), ev, cfgs, got, workers); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: ys[%d] = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestTestSetIdenticalAcrossWorkerCounts(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	want, err := NewTestSetWorkers(context.Background(), ev, nil, 30, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 6} {
		got, err := NewTestSetWorkers(context.Background(), ev, nil, 30, 17, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Configs {
			if got.Configs[i] != want.Configs[i] {
				t.Fatalf("workers=%d: config %d differs", workers, i)
			}
			if got.Actual[i] != want.Actual[i] {
				t.Fatalf("workers=%d: response %d differs", workers, i)
			}
		}
	}
}

func TestSimCacheSingleFlight(t *testing.T) {
	ev, err := NewSimEvaluator("equake", 6000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := design.PaperSpace().Decode(mid(design.PaperSpace()), 50)
	// Hammer one configuration from many goroutines: single-flight must
	// collapse the concurrent misses into exactly one simulation.
	var wg sync.WaitGroup
	results := make([]float64, 16)
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], _ = ev.EvalRan(cfg)
		}()
	}
	wg.Wait()
	if n := ev.Simulations(); n != 1 {
		t.Fatalf("%d simulations for one config under concurrency, want 1", n)
	}
	for _, r := range results {
		if r != results[0] {
			t.Fatalf("divergent concurrent results: %v", results)
		}
	}
}

func TestCrossValidateTracksTestError(t *testing.T) {
	ev := FuncEvaluator(syntheticCPI)
	m, err := BuildRBFModel(ev, 80, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	cv := m.CrossValidate(5)
	if cv.N == 0 || cv.Mean <= 0 {
		t.Fatalf("CV stats malformed: %+v", cv)
	}
	ts := mustTestSet(t, ev, 40, 13)
	test := m.Validate(ts)
	// CV should be the same order of magnitude as the test error (it is
	// an estimate, typically pessimistic since folds are smaller).
	if cv.Mean > test.Mean*20+5 || test.Mean > cv.Mean*20+5 {
		t.Fatalf("CV %v%% wildly off from test %v%%", cv.Mean, test.Mean)
	}
}
