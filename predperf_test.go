package predperf_test

import (
	"context"
	"math"
	"testing"

	"predperf"
)

func TestPublicAPIQuickFlow(t *testing.T) {
	ev, err := predperf.NewSimEvaluator("equake", 8000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := predperf.BuildModel(ev, 25, predperf.Options{LHSCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := predperf.Config{
		PipeDepth: 12, ROBSize: 96, IQSize: 48, LSQSize: 48,
		L2SizeKB: 2048, L2Lat: 10, IL1SizeKB: 32, DL1SizeKB: 32, DL1Lat: 2,
	}
	pred := m.PredictConfig(cfg)
	if math.IsNaN(pred) || pred <= 0 {
		t.Fatalf("prediction = %v", pred)
	}
	res, err := predperf.Simulate(cfg, "equake", 8000)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPI() <= 0 {
		t.Fatalf("simulated CPI = %v", res.CPI())
	}
	// Model and simulator should be within a loose factor on an
	// interior point.
	if pred < res.CPI()/2 || pred > res.CPI()*2 {
		t.Fatalf("prediction %v far from simulation %v", pred, res.CPI())
	}
}

func TestBenchmarksListed(t *testing.T) {
	names := predperf.Benchmarks()
	if len(names) != 8 {
		t.Fatalf("Benchmarks() returned %d names", len(names))
	}
	if _, err := predperf.NewSimEvaluator("nosuch", 1000); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestSpacesExposed(t *testing.T) {
	if predperf.PaperSpace().N() != 9 || predperf.TestSpace().N() != 9 {
		t.Fatal("spaces malformed")
	}
}

func TestFacadeSearchFlow(t *testing.T) {
	ev, err := predperf.NewSimEvaluator("gzip", 8000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := predperf.BuildModel(ev, 25, predperf.Options{LHSCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := predperf.Minimize(context.Background(), m, ev, predperf.SearchOptions{
		GridLevels: 2,
		Shortlist:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue <= 0 || res.Verified != 3 {
		t.Fatalf("search result malformed: %+v", res)
	}
	if len(predperf.EnumerateGrid(nil, 2)) == 0 {
		t.Fatal("empty grid")
	}
}

func TestFacadeBuildToAccuracy(t *testing.T) {
	ev := predperf.FuncEvaluator(func(c predperf.Config) float64 {
		return 1 + 10/float64(c.ROBSize) + float64(c.L2Lat)/20
	})
	ts, err := predperf.NewTestSet(context.Background(), ev, nil, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := predperf.BuildToAccuracy(ev, []int{20, 40}, 2.0, ts, predperf.Options{LHSCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[len(res)-1].Stats.N != 20 {
		t.Fatalf("unexpected results: %+v", res)
	}
}

func TestExtraBenchmarksUsable(t *testing.T) {
	extras := predperf.ExtraBenchmarks()
	if len(extras) != 4 {
		t.Fatalf("extra benchmarks: %v", extras)
	}
	res, err := predperf.Simulate(predperf.Config{
		PipeDepth: 12, ROBSize: 96, IQSize: 48, LSQSize: 48,
		L2SizeKB: 2048, L2Lat: 10, IL1SizeKB: 32, DL1SizeKB: 32, DL1Lat: 2,
	}, extras[0], 8000)
	if err != nil {
		t.Fatal(err)
	}
	if res.CPI() <= 0 {
		t.Fatalf("CPI = %v", res.CPI())
	}
}
