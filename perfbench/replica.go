package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/par"
	"predperf/internal/rbf"
	"predperf/internal/sample"
	"predperf/internal/sim"
	"predperf/internal/trace"
)

// replicaResult is the in-process replica of one predperf build plus
// validation, made only of calls into each layer's leaf functions. It is
// the gate's reference model, and its spans time those leaf calls.
type replicaResult struct {
	model  *core.Model
	stats  core.ErrorStats
	saved  []byte // the model as core.Model.Save writes it
	tr     trace.Trace
	unique int        // distinct configurations simulated (train ∪ test)
	digest string     // sha256 over every sim.Result, in configuration-key order
	spans  *obs.Trace // one span per timed leaf call
}

// summary formats the model lines exactly as predperf prints them.
func (rr *replicaResult) summary() []string {
	m, st := rr.model, rr.stats
	return []string{
		fmt.Sprintf("  sample discrepancy : %.5f", m.Discrepancy),
		fmt.Sprintf("  method parameters  : p_min=%d alpha=%.0f", m.Fit.PMin, m.Fit.Alpha),
		fmt.Sprintf("  RBF centers        : %d", m.Fit.NumCenters()),
		fmt.Sprintf("  validation (%d random points): mean %.2f%%, max %.2f%%, std %.2f%%", st.N, st.Mean, st.Max, st.Std),
	}
}

// replica rebuilds what `predperf -bench <bench> -seed <seed>` builds,
// with predperf's defaults: a trace from trace.Generate at seed 1, the
// best of lhsCands latin hypercubes from the seed, one CPI simulation
// per distinct configuration, an RBF fit, and validation on testPoints
// uniform Table 2 points drawn from seed+77.
func replica(bench string, seed int64) (*replicaResult, error) {
	prof, ok := trace.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	rr := &replicaResult{spans: obs.NewTrace("")}
	ctx := obs.WithTrace(context.Background(), rr.spans)
	workers := par.Workers(0)
	_, end := obs.StartSpanCtx(ctx, "trace.gen")
	rr.tr = trace.Generate(prof, traceInsts, 1)
	end()

	space := design.PaperSpace()
	_, end = obs.StartSpanCtx(ctx, "sample.best_lhs")
	raw, disc := sample.BestLHSWorkers(space, sampleSize, lhsCands, rand.New(rand.NewSource(seed)), workers)
	end()
	cfgs := make([]design.Config, len(raw))
	xs := make([][]float64, len(raw))
	pts := make([]design.Point, len(raw))
	for i, p := range raw {
		cfgs[i] = space.Decode(p, sampleSize)
		pts[i] = space.Encode(cfgs[i])
		xs[i] = pts[i]
	}
	memo := map[string]sim.Result{}
	ys := rr.simulate(cfgs, memo, workers)
	_, end = obs.StartSpanCtx(ctx, "rbf.fit")
	fit, err := rbf.Fit(xs, ys, rbf.Options{Workers: workers})
	end()
	if err != nil {
		return nil, fmt.Errorf("replica fit: %w", err)
	}
	rr.model = &core.Model{
		Name: bench, Space: space, SampleSize: sampleSize, Fit: fit,
		Points: pts, Configs: cfgs, Responses: ys, Discrepancy: disc,
	}
	tspace := design.TestSpace()
	tpts := sample.UniformRandom(tspace, testPoints, rand.New(rand.NewSource(seed+77)))
	ts := &core.TestSet{Configs: make([]design.Config, len(tpts))}
	for i, p := range tpts {
		ts.Configs[i] = tspace.Decode(p, testPoints)
	}
	ts.Actual = rr.simulate(ts.Configs, memo, workers)
	_, end = obs.StartSpanCtx(ctx, "core.validate")
	rr.stats = rr.model.Validate(ts)
	end()

	var buf bytes.Buffer
	if err := rr.model.Save(&buf); err != nil {
		return nil, err
	}
	rr.saved = buf.Bytes()
	keys := make([]string, 0, len(memo))
	for k := range memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %+v\n", k, memo[k])
	}
	rr.unique = len(keys)
	rr.digest = hex.EncodeToString(h.Sum(nil))
	return rr, nil
}

// simConfig is the machine predperf's evaluator simulates for cfg.
func simConfig(cfg design.Config) sim.Config {
	sc := sim.FromDesign(cfg)
	sc.WarmupInsts = traceInsts / 5
	return sc
}

// simulate runs sim.Run once per configuration not yet in memo, on
// `workers` goroutines, and returns the CPI of every configuration in
// order.
func (rr *replicaResult) simulate(cfgs []design.Config, memo map[string]sim.Result, workers int) []float64 {
	var todo []design.Config
	seen := map[string]bool{}
	for _, c := range cfgs {
		k := c.Key()
		if _, ok := memo[k]; !ok && !seen[k] {
			seen[k] = true
			todo = append(todo, c)
		}
	}
	res := make([]sim.Result, len(todo))
	par.For(workers, len(todo), func(i int) { res[i] = sim.Run(simConfig(todo[i]), rr.tr) })
	for i, c := range todo {
		memo[c.Key()] = res[i]
	}
	ys := make([]float64, len(cfgs))
	for i, c := range cfgs {
		ys[i] = memo[c.Key()].CPI()
	}
	return ys
}

// leafMS is the time, in ms, of the replica's span with this name.
func (rr *replicaResult) leafMS(name string) float64 {
	var d time.Duration
	for _, s := range rr.spans.Spans() {
		if s.Name == name {
			d += s.Dur
		}
	}
	return float64(d) / 1e6
}

// microMetrics reports the replica's leaf-call times and times further
// single-layer leaf calls in isolation: serial simulation speed and
// allocations, RBF prediction, and the obs calls a traced predserve
// request makes.
func (r *run) microMetrics(rr *replicaResult) {
	for _, name := range []string{"trace.gen", "sample.best_lhs", "rbf.fit", "core.validate"} {
		r.set(name+"_ms", rr.leafMS(name), "ms")
	}
	cfgs := rr.model.Configs[:4]
	t0 := time.Now()
	for _, c := range cfgs {
		sim.Run(simConfig(c), rr.tr)
	}
	r.set("sim.minst_per_s", float64(len(cfgs)*traceInsts)/time.Since(t0).Seconds()/1e6, "Minst/s")
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	sim.Run(simConfig(cfgs[0]), rr.tr)
	runtime.ReadMemStats(&b)
	r.set("sim.allocs_per_inst", float64(b.Mallocs-a.Mallocs)/traceInsts, "allocs/inst")

	m := rr.model
	batch := m.Configs[:64]
	r.set("rbf.predict_us", medianPerOp(200, func() { m.PredictConfig(batch[0]) })*1e6, "us")
	r.set("rbf.predict_batch64_us", medianPerOp(20, func() { m.PredictConfigs(batch) })*1e6, "us")

	obs.Enable()
	h := obs.NewHistogram("perfbench.request_seconds", obs.DefLatencyBuckets)
	store := obs.NewTraceStore(64)
	r.set("obs.request_trace_us", medianPerOp(200, func() {
		t0 := time.Now()
		id := obs.NewTraceID()
		tr := obs.NewTrace(id)
		ctx, endRoot := obs.StartSpanCtx(obs.WithTrace(context.Background(), tr), "serve.request", "route", "/v1/predict")
		_, end := obs.StartSpanCtx(ctx, "serve.predict")
		end()
		endRoot()
		d := time.Since(t0)
		h.ObserveWithExemplar(d.Seconds(), id)
		store.Add(tr, obs.TraceMeta{ID: id, Kind: "request", Route: "/v1/predict", Status: 200, Start: t0, Dur: d})
	})*1e6, "us")
}

// medianPerOp runs fn in 15 rounds of n calls and returns the median
// seconds per call.
func medianPerOp(n int, fn func()) float64 {
	per := make([]float64, 15)
	for i := range per {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			fn()
		}
		per[i] = time.Since(t0).Seconds() / float64(n)
	}
	return median(per)
}
