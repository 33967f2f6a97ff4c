package core

import (
	"testing"

	"predperf/internal/design"
)

func TestMetricViewsShareSimulations(t *testing.T) {
	ev, err := NewSimEvaluator("crafty", 8000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := design.PaperSpace().Decode(mid(design.PaperSpace()), 50)
	cpi := evalOne(t, ev, cfg)
	n := ev.Simulations()

	epi := ev.WithMetric(MetricEPI)
	edp := ev.WithMetric(MetricEDP)
	pw := ev.WithMetric(MetricPower)
	vEPI, vEDP, vPW := evalOne(t, epi, cfg), evalOne(t, edp, cfg), evalOne(t, pw, cfg)
	if ev.Simulations() != n {
		t.Fatalf("metric views re-simulated: %d → %d", n, ev.Simulations())
	}
	if vEPI <= 0 || vEDP <= 0 || vPW <= 0 {
		t.Fatalf("non-positive metrics: EPI=%v EDP=%v P=%v", vEPI, vEDP, vPW)
	}
	// EDP = EPI × CPI by construction.
	if d := vEDP - vEPI*cpi; d > 1e-9*vEDP || d < -1e-9*vEDP {
		t.Fatalf("EDP %v != EPI·CPI %v", vEDP, vEPI*cpi)
	}
}

func TestMetricStrings(t *testing.T) {
	cases := map[Metric]string{MetricCPI: "CPI", MetricEPI: "EPI", MetricEDP: "EDP", MetricPower: "power"}
	for m, want := range cases {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

func TestBuildModelForPowerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("power model build in -short mode")
	}
	ev, err := NewSimEvaluator("ammp", 8000)
	if err != nil {
		t.Fatal(err)
	}
	pev := ev.WithMetric(MetricEPI)
	m, err := BuildRBFModel(pev, 30, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	ts := mustTestSet(t, pev, 12, 5)
	st := m.Validate(ts)
	if st.Mean <= 0 || st.Mean > 60 {
		t.Fatalf("EPI model mean error %v%%", st.Mean)
	}
}
