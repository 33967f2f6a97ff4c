package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// lifecycle runs the correctness gate, the build phase and the serve
// phase of one workload, and sets the run's metrics.
func (r *run) lifecycle() error {
	// Gate: predperf at the gate seed must print the model the
	// in-process replica builds at that seed, and save it byte for byte.
	// On the farm the replica is the local build the remote one must
	// equal. The saved model is the one the serve phase serves, and its
	// validation error is val_mean_err_pct: the gate seed is fixed, so
	// the accuracy guard does not move with the workload seed (which
	// drives the timed builds and the request stream).
	rr, err := replica(r.wl.bench, gateSeed)
	if err != nil {
		return err
	}
	fmt.Printf("sim digest %s seed=%d: %s (%d results)\n", r.wl.name, gateSeed, rr.digest, rr.unique)
	modelPath := filepath.Join(r.work, r.wl.bench+".json")
	gate, err := r.build(gateSeed, modelPath, false)
	if err != nil {
		return err
	}
	saved, err := os.ReadFile(modelPath)
	if err != nil {
		return err
	}
	want := rr.summary()
	for i := range want {
		r.check(gate.summary[i] == want[i], "gate: predperf printed %q, replica %q", gate.summary[i], want[i])
	}
	r.check(bytes.Equal(saved, rr.saved), "gate: predperf saved a model that differs from the replica's")
	r.check(gate.sims == rr.unique, "gate: predperf ran %d simulations, replica %d distinct configurations", gate.sims, rr.unique)
	if r.wl.farm {
		r.farmSims(gate, rr.unique)
	}

	// A traced run builds every seed twice, traced and untraced, in
	// alternating order, so trace_overhead_frac compares the same builds.
	var builds, twins []*buildRun
	timed := func(i int) error {
		modes := []bool{r.traced}
		if r.traced {
			modes = []bool{i%2 == 0, i%2 == 1}
		}
		for _, traced := range modes {
			b, err := r.build(r.buildSeed(i), "", traced)
			if err != nil {
				return err
			}
			r.attempted++
			if r.wl.farm {
				r.farmSims(b, -1)
			}
			if traced == r.traced {
				builds = append(builds, b)
			} else {
				twins = append(twins, b)
			}
		}
		return nil
	}
	starts := 1
	if r.wl.buildShare == 0 {
		starts = serveStarts
	}
	sv, err := r.startServing(modelPath, starts)
	if err != nil {
		return err
	}
	defer sv.stop()
	i := 0
	deadline := time.Now().Add(time.Duration(r.wl.buildShare * r.seconds * float64(time.Second)))
	for ; i < r.wl.builds || time.Now().Before(deadline); i++ {
		if err := timed(i); err != nil {
			return err
		}
		if r.wl.buildShare > 0 {
			sv.openLoop(openSlice)
		}
	}
	closedDur := (1 - r.wl.buildShare) * r.seconds
	if r.wl.buildShare == 0 {
		sv.openLoop(openShare * r.seconds)
		closedDur = (1 - openShare) * r.seconds
	}
	st, err := sv.finish(closedDur)
	if err != nil {
		return err
	}
	for end := i + r.wl.buildsAfter; i < end; i++ {
		if err := timed(i); err != nil {
			return err
		}
	}

	var wall, cpu, setup, rss, val []float64
	for _, b := range builds {
		wall = append(wall, b.wall)
		cpu = append(cpu, b.cpu)
		setup = append(setup, b.setup)
		rss = append(rss, b.rssMiB)
		val = append(val, b.valMean)
	}
	fmt.Printf("builds (%s, farm=%v): %d, wall %s s, cpu %s s; validation mean %% error %s (gate %.2f); peak RSS %s MiB, predserve %.1f MiB\n",
		r.wl.bench, r.wl.farm, len(builds), fmtList(wall), fmtList(cpu), fmtList(val), gate.valMean, fmtList(rss), st.rssMiB)
	if r.wl.buildShare == 0 {
		// The serve workload's set-up is predserve's: launch until the
		// model is loaded and /readyz answers.
		setup = st.setup
	}
	if !r.traced {
		r.set("setup_s", median(setup), "s")
		r.set("build_cpu_s", median(cpu), "s")
		r.set("val_mean_err_pct", gate.valMean, "%")
		// The workload's processes: a build's (median over builds) and
		// predserve.
		r.set("peak_rss_mb", median(rss)+st.rssMiB, "MiB")
		r.serveMetrics(st)
		return nil
	}
	r.layerMetrics(builds, twins)
	r.microMetrics(rr)
	r.clusterMetrics(builds)
	r.serveMetrics(st)
	return nil
}

// farmSims compares the exact simulation count (/healthz
// evaluators[].sims, summed over the fresh workers) with the shared
// cluster.worker_sims counter, and on the gate with the distinct
// configurations the build needs.
func (r *run) farmSims(b *buildRun, unique int) {
	fmt.Printf("farm build seed=%d: exact sims %d, cluster.worker_sims counter %d\n", b.seed, b.exactSims, b.counterSims)
	if unique >= 0 {
		r.check(b.exactSims >= unique, "farm gate: workers ran %d simulations, the build needs %d", b.exactSims, unique)
	}
}

// layerMetrics reconciles predperf's own stage spans (from -report) with
// the process wall time the benchmark measured, build by build: launch
// until the first line, then core.build_rbf (core.sample, core.simulate,
// core.fit and the build's own time), core.testset and core.validate
// must cover the wall within maxResidual. Each row is the median over
// the traced builds; trace_overhead_frac is the median ratio of a traced
// build's wall to its untraced twin's, minus 1, and build_s the median
// wall time of the untraced twins.
func (r *run) layerMetrics(builds, twins []*buildRun) {
	var self, busy, phase, util, wall, untraced, residual, overhead []float64
	for i, b := range builds {
		sec := func(name string) float64 { return b.report.Stages[name].TotalSec }
		workers := float64(b.report.Host.GOMAXPROCS)
		build := sec("core.build_rbf")
		own := build - sec("core.sample") - sec("core.simulate") - sec("core.fit")
		res := (b.wall - b.firstLine - build - sec("core.testset") - sec("core.validate")) / b.wall
		fmt.Printf("layer budget (predperf seed=%d, %.0f workers): wall %.4fs = start %.4f + sample %.4f + simulate %.4f + fit %.4f + build self %.4f + test set %.4f + validate %.4f; residual %.2e of wall (limit %.0e)\n",
			b.seed, workers, b.wall, b.firstLine, sec("core.sample"), sec("core.simulate"), sec("core.fit"), own, sec("core.testset"), sec("core.validate"), res, maxResidual)
		r.check(math.Abs(res) <= maxResidual, "seed %d: layer rows leave %.2e of predperf's wall unreconciled", b.seed, res)
		self = append(self, own)
		busy = append(busy, sec("core.sim_point"))
		phase = append(phase, sec("core.simulate")+sec("core.testset"))
		util = append(util, sec("core.sim_point")/(sec("core.simulate")*workers))
		wall = append(wall, b.wall)
		residual = append(residual, math.Abs(res))
		untraced = append(untraced, twins[i].wall)
		overhead = append(overhead, b.wall/twins[i].wall-1)
	}
	r.set("core.self_s", median(self), "s")
	r.set("core.traced_wall_s", median(wall), "s")
	r.set("residual_frac", median(residual), "ratio")
	r.set("trace_overhead_frac", median(overhead), "ratio")
	r.set("build_s", median(untraced), "s")
	r.set("sim.busy_s", median(busy), "s")
	r.set("sim.phase_s", median(phase), "s")
	r.set("sim.par_util", median(util), "ratio")
}

// maxResidual is the stated limit on the share of predperf's wall time
// its stage spans and start-up may leave unexplained.
const maxResidual = 0.02

// clusterMetrics reads the farm's counters: predperf's -report (client
// side) and each worker's /metricz (server side). They are all zero on
// workloads that build locally.
func (r *run) clusterMetrics(builds []*buildRun) {
	var reqs, configs, hedges, retries, exact, counter float64
	var clientSum, workerSum float64
	var dup []float64
	for _, b := range builds {
		if b.report == nil {
			continue
		}
		c := b.report.Counters
		reqs += float64(c["cluster.pool_requests"])
		hedges += float64(c["cluster.hedges"])
		retries += float64(c["cluster.retries"])
		for name, h := range b.report.Histograms {
			if strings.HasPrefix(name, "cluster.worker_request_seconds") {
				clientSum += h.Sum
			}
		}
		for _, w := range b.workers {
			configs += float64(w.Counters["cluster.worker_eval_configs"])
			for name, h := range w.Histograms {
				if strings.HasPrefix(name, "cluster.worker_eval_seconds") {
					workerSum += h.Sum
				}
			}
		}
		exact += float64(b.exactSims)
		counter += float64(b.counterSims)
		if b.exactSims > 0 {
			dup = append(dup, float64(b.exactSims-b.sims)/float64(b.exactSims))
		}
	}
	n := float64(len(builds))
	r.set("cluster.requests", reqs/n, "count")
	r.set("cluster.configs_per_request", configs/max(reqs, 1), "configs")
	r.set("cluster.hop_overhead_ms", 1e3*(clientSum-workerSum)/max(reqs, 1), "ms")
	r.set("cluster.worker_busy_s", workerSum/n, "s")
	r.set("cluster.dup_sim_frac", mean(dup), "ratio")
	r.set("cluster.hedges", hedges/n, "count")
	r.set("cluster.retries", retries/n, "count")
	r.set("cluster.exact_sims", exact/n, "count")
	r.set("cluster.worker_sims_excess", (counter-exact)/n, "count")
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
