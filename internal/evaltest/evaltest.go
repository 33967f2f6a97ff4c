// Package evaltest is a conformance suite for core.Evaluator
// implementations. The Evaluator interface is the seam the whole
// pipeline hangs off — model builds, validation, search verification,
// shadow re-simulation, retraining — so every implementation must honor
// the same contract: deterministic values in input order, coherent
// memoization, single-flight de-duplication of concurrent misses, batch
// calls identical to per-config calls, and a cancelled context answered
// with its error. The suite runs against a Harness so each package
// exercises its own construction without import cycles.
package evaltest

import (
	"context"
	"errors"
	"sync"
	"testing"

	"predperf/internal/core"
	"predperf/internal/design"
)

// Harness adapts one Evaluator implementation to the suite.
type Harness struct {
	// New returns a fresh evaluator over the same deterministic
	// backend; two evaluators from one harness must agree bitwise.
	New func(t *testing.T) core.Evaluator
	// Sims reports how many backend simulations ev has paid for
	// (core.SimEvaluator.Simulations / cluster.RemoteEvaluator
	// .Simulations). nil skips the cost-accounting assertions.
	Sims func(ev core.Evaluator) int
}

// Configs returns n distinct valid design points, deterministically.
// Every field stays positive and ROB varies, so keys never collide.
func Configs(n int) []design.Config {
	out := make([]design.Config, n)
	for i := range out {
		out[i] = design.Config{
			PipeDepth: 8 + (i%9)*2,
			ROBSize:   64 + 8*i,
			IQSize:    32 + 4*(i%5),
			LSQSize:   32,
			L2SizeKB:  1024 << (i % 3),
			L2Lat:     8 + i%6,
			IL1SizeKB: 32,
			DL1SizeKB: 32 << (i % 2),
			DL1Lat:    2 + i%3,
		}
	}
	return out
}

// Run executes the conformance suite as subtests of t.
func Run(t *testing.T, h Harness) {
	t.Run("deterministic", func(t *testing.T) { deterministic(t, h) })
	t.Run("cache_coherence", func(t *testing.T) { cacheCoherence(t, h) })
	t.Run("single_flight", func(t *testing.T) { singleFlight(t, h) })
	t.Run("distinct_configs", func(t *testing.T) { distinctConfigs(t, h) })
	t.Run("batch_matches_singles", func(t *testing.T) { batchMatchesSingles(t, h) })
	t.Run("cancellation", func(t *testing.T) { cancellation(t, h) })
}

// One evaluates a single configuration, failing the test on an error.
func One(t testing.TB, ev core.Evaluator, cfg design.Config) float64 {
	t.Helper()
	return All(t, ev, []design.Config{cfg})[0]
}

// All evaluates cfgs in one call, failing the test on an error or on a
// value count that does not match.
func All(t testing.TB, ev core.Evaluator, cfgs []design.Config) []float64 {
	t.Helper()
	vals, err := ev.Eval(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("Eval of %d configs: %v", len(cfgs), err)
	}
	if len(vals) != len(cfgs) {
		t.Fatalf("Eval returned %d values for %d configs", len(vals), len(cfgs))
	}
	return vals
}

// deterministic: the same configuration yields the same bits — within
// one evaluator and across fresh instances over the same backend.
func deterministic(t *testing.T, h Harness) {
	cfgs := Configs(4)
	a, b := h.New(t), h.New(t)
	for _, cfg := range cfgs {
		v1 := One(t, a, cfg)
		if v2 := One(t, a, cfg); v2 != v1 {
			t.Fatalf("same evaluator disagreed with itself: %v then %v", v1, v2)
		}
		if v3 := One(t, b, cfg); v3 != v1 {
			t.Fatalf("fresh evaluator disagreed: %v vs %v", v3, v1)
		}
	}
}

// cacheCoherence: re-evaluating a working set in a different order
// returns identical values without paying for new simulations.
func cacheCoherence(t *testing.T, h Harness) {
	ev := h.New(t)
	cfgs := Configs(12)
	first := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		first[i] = One(t, ev, cfg)
	}
	var before int
	if h.Sims != nil {
		before = h.Sims(ev)
		if before != len(cfgs) {
			t.Fatalf("first pass paid %d simulations for %d configs", before, len(cfgs))
		}
	}
	for i := len(cfgs) - 1; i >= 0; i-- {
		if got := One(t, ev, cfgs[i]); got != first[i] {
			t.Fatalf("config %d: cached value %v != first value %v", i, got, first[i])
		}
	}
	if h.Sims != nil {
		if after := h.Sims(ev); after != before {
			t.Fatalf("second pass re-simulated: %d → %d", before, after)
		}
	}
}

// singleFlight: concurrent misses on one configuration agree and cost
// one simulation.
func singleFlight(t *testing.T, h Harness) {
	ev := h.New(t)
	cfg := Configs(1)[0]
	const workers = 32
	got := make([][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = ev.Eval(context.Background(), []design.Config{cfg})
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil || got[i][0] != got[0][0] {
			t.Fatalf("worker %d saw %v (err %v), worker 0 saw %v", i, got[i], errs[i], got[0])
		}
	}
	if h.Sims != nil {
		if n := h.Sims(ev); n != 1 {
			t.Fatalf("%d concurrent evals of one config paid %d simulations, want 1", workers, n)
		}
	}
}

// distinctConfigs: distinct design points are evaluated independently
// (no key collisions) and each costs exactly one simulation.
func distinctConfigs(t *testing.T, h Harness) {
	ev := h.New(t)
	cfgs := Configs(16)
	seen := map[string]float64{}
	for _, cfg := range cfgs {
		seen[cfg.Key()] = One(t, ev, cfg)
	}
	if len(seen) != len(cfgs) {
		t.Fatalf("config keys collided: %d unique of %d", len(seen), len(cfgs))
	}
	if h.Sims != nil {
		if n := h.Sims(ev); n != len(cfgs) {
			t.Fatalf("%d distinct configs paid %d simulations", len(cfgs), n)
		}
	}
}

// batchMatchesSingles: one Eval call over a working set with a repeated
// configuration is positionally bit-identical to per-config calls on a
// fresh evaluator, and pays one simulation per distinct configuration.
func batchMatchesSingles(t *testing.T, h Harness) {
	cfgs := append(Configs(10), Configs(4)[3])
	batchEv, single := h.New(t), h.New(t)
	for i, v := range All(t, batchEv, cfgs) {
		if want := One(t, single, cfgs[i]); v != want {
			t.Fatalf("config %d: batch value %v != single value %v", i, v, want)
		}
	}
	if h.Sims != nil {
		if n := h.Sims(batchEv); n != len(cfgs)-1 {
			t.Fatalf("a batch of %d distinct configs paid %d simulations", len(cfgs)-1, n)
		}
	}
}

// cancellation: Eval under a cancelled context answers the context's
// error and no values, instead of hanging or fabricating a value.
func cancellation(t *testing.T, h Harness) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if vals, err := h.New(t).Eval(ctx, Configs(2)); !errors.Is(err, context.Canceled) || vals != nil {
		t.Fatalf("cancelled Eval returned %v, %v; want no values and context.Canceled", vals, err)
	}
}
