package adaptive

import (
	"context"
	"math"
	"testing"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/rbf"
)

// curvedCPI has a sharp local feature: adaptive sampling should place
// extra points near it.
func curvedCPI(c design.Config) float64 {
	l2 := float64(c.L2SizeKB)
	lat := float64(c.L2Lat)
	return 0.8 + 2.5*math.Exp(-math.Pow((math.Log2(l2)-9)/0.8, 2))*(lat/20) +
		8/float64(c.ROBSize) + 0.3*float64(c.PipeDepth)/24
}

func fastOpt() Options {
	return Options{
		InitialSize: 20, BatchSize: 10, MaxSize: 60, Folds: 4,
		RBF:  rbf.Options{PMinGrid: []int{1}, AlphaGrid: []float64{5, 9}},
		Seed: 3,
	}
}

func TestBuildReachesBudget(t *testing.T) {
	ev := core.FuncEvaluator(curvedCPI)
	m, hist, err := Build(ev, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if m.SampleSize != 60 {
		t.Fatalf("final sample %d, want 60", m.SampleSize)
	}
	if len(hist) != 5 { // 20, 30, 40, 50, 60
		t.Fatalf("rounds = %d, want 5", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Size != hist[i-1].Size+10 {
			t.Fatalf("round sizes: %+v", hist)
		}
	}
}

func TestCVErrorGenerallyImproves(t *testing.T) {
	ev := core.FuncEvaluator(curvedCPI)
	_, hist, err := Build(ev, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist[0].CVMean, hist[len(hist)-1].CVMean
	if last > first {
		t.Fatalf("CV error rose from %v to %v", first, last)
	}
}

func TestTargetCVStopsEarly(t *testing.T) {
	ev := core.FuncEvaluator(curvedCPI)
	opt := fastOpt()
	opt.TargetCV = 1e6 // absurdly easy: stop after the first round
	m, hist, err := Build(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || m.SampleSize != opt.InitialSize {
		t.Fatalf("did not stop at target: %d rounds, size %d", len(hist), m.SampleSize)
	}
}

func TestAdaptiveBeatsOrMatchesOneShotOnLocalFeature(t *testing.T) {
	ev := core.FuncEvaluator(curvedCPI)
	opt := fastOpt()
	m, _, err := Build(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := core.BuildRBFModel(ev, opt.MaxSize, core.Options{
		LHSCandidates: 16, RBF: opt.RBF, Seed: opt.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := core.NewTestSetWorkers(context.Background(), ev, nil, 60, 17, 0)
	if err != nil {
		t.Fatal(err)
	}
	ad := m.Validate(ts)
	os := oneShot.Validate(ts)
	// Adaptive must be at least competitive (within 1.5× of one-shot);
	// on feature-heavy surfaces it usually wins outright.
	if ad.Mean > os.Mean*1.5+0.5 {
		t.Fatalf("adaptive %v%% much worse than one-shot %v%%", ad.Mean, os.Mean)
	}
}

func TestInvalidOptions(t *testing.T) {
	ev := core.FuncEvaluator(curvedCPI)
	opt := fastOpt()
	opt.InitialSize, opt.MaxSize = 50, 50
	if _, _, err := Build(ev, opt); err == nil {
		t.Fatal("expected error when InitialSize >= MaxSize")
	}
}

func TestBatchClampsToBudget(t *testing.T) {
	ev := core.FuncEvaluator(curvedCPI)
	opt := fastOpt()
	opt.InitialSize, opt.BatchSize, opt.MaxSize = 20, 50, 45
	m, _, err := Build(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.SampleSize != 45 {
		t.Fatalf("final size %d, want exactly the 45-point budget", m.SampleSize)
	}
}

func TestAcquireSpreadsBatch(t *testing.T) {
	// With uniform residuals, acquisition must not pick coincident
	// points (exploration term).
	train := []design.Point{{0.5, 0.5}}
	resid := []float64{1}
	pool := make([]design.Point, 0, 100)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			pool = append(pool, design.Point{float64(i) / 9, float64(j) / 9})
		}
	}
	chosen := acquire(pool, train, resid, 5, 1)
	if len(chosen) != 5 {
		t.Fatalf("chose %d", len(chosen))
	}
	for i := 0; i < len(chosen); i++ {
		for j := i + 1; j < len(chosen); j++ {
			if dist(chosen[i], chosen[j]) < 0.2 {
				t.Fatalf("batch points too close: %v vs %v", chosen[i], chosen[j])
			}
		}
	}
}
