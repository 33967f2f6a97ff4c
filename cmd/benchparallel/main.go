// Command benchparallel measures the serial-vs-parallel wall-clock of
// the end-to-end model-building pipeline (best-of-K LHS discrepancy
// scoring → design-point simulation → (p_min, α) RBF grid search →
// test-set validation) and of its individual stages, verifies that both
// paths produce bit-identical models, and writes the speedup report to
// BENCH_parallel.json (override with -out).
//
// The serial leg pins every stage to one worker (Options.Parallel = 1);
// the parallel leg uses the default of one worker per CPU. On a
// single-CPU host the two legs time alike — the recorded cpus/gomaxprocs
// fields say how much hardware the speedup had to work with.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"time"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/rbf"
	"predperf/internal/sample"
)

// Report is the JSON schema of BENCH_parallel.json.
type Report struct {
	Host      Host              `json:"host"`
	Config    Config            `json:"config"`
	Pipeline  Timing            `json:"pipeline"`
	Stages    map[string]Timing `json:"stages"`
	Identical bool              `json:"bit_identical_models"`
}

// Host records how much hardware the parallel leg had available.
type Host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// Config records the workload the timings were taken at.
type Config struct {
	Benchmark     string `json:"benchmark"`
	TraceLen      int    `json:"trace_len"`
	SampleSize    int    `json:"sample_size"`
	TestPoints    int    `json:"test_points"`
	LHSCandidates int    `json:"lhs_candidates"`
	Repeats       int    `json:"repeats"`
}

// Timing is one serial-vs-parallel comparison (best of the repeats).
type Timing struct {
	SerialSec   float64 `json:"serial_sec"`
	ParallelSec float64 `json:"parallel_sec"`
	Speedup     float64 `json:"speedup"`
}

func timing(repeats int, serial, parallel func()) Timing {
	best := func(f func()) float64 {
		b := 0.0
		for i := 0; i < repeats; i++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0).Seconds(); i == 0 || d < b {
				b = d
			}
		}
		return b
	}
	t := Timing{SerialSec: best(serial), ParallelSec: best(parallel)}
	if t.ParallelSec > 0 {
		t.Speedup = t.SerialSec / t.ParallelSec
	}
	return t
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchparallel: ")

	bench := flag.String("bench", "mcf", "benchmark workload")
	insts := flag.Int("insts", 30_000, "trace length in dynamic instructions")
	size := flag.Int("sample", 60, "training sample size")
	testN := flag.Int("test", 30, "validation test points")
	cands := flag.Int("lhs", 32, "latin hypercube candidates")
	repeats := flag.Int("repeats", 3, "repetitions per timing (best is kept)")
	outFile := flag.String("out", "BENCH_parallel.json", "report destination")
	flag.Parse()
	if *repeats < 1 {
		*repeats = 1
	}

	rep := Report{
		Host: Host{
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
		},
		Config: Config{
			Benchmark: *bench, TraceLen: *insts, SampleSize: *size,
			TestPoints: *testN, LHSCandidates: *cands, Repeats: *repeats,
		},
		Stages: map[string]Timing{},
	}

	// Warm the trace cache so neither leg pays generation cost.
	if _, err := core.NewSimEvaluator(*bench, *insts); err != nil {
		log.Fatal(err)
	}

	pipeline := func(workers int) (*core.Model, core.ErrorStats) {
		ev, err := core.NewSimEvaluator(*bench, *insts)
		if err != nil {
			log.Fatal(err)
		}
		opt := core.Options{LHSCandidates: *cands, Seed: 3, Parallel: workers}
		m, err := core.BuildRBFModel(ev, *size, opt)
		if err != nil {
			log.Fatal(err)
		}
		ts, _ := core.NewTestSetWorkers(context.Background(), ev, nil, *testN, 80, workers) // fails only on a done ctx
		return m, m.Validate(ts)
	}

	// End-to-end pipeline, plus a bit-identity check between the legs.
	var serialM, parM *core.Model
	var serialSt, parSt core.ErrorStats
	rep.Pipeline = timing(*repeats,
		func() { serialM, serialSt = pipeline(1) },
		func() { parM, parSt = pipeline(0) })
	rep.Identical = serialSt == parSt &&
		serialM.Discrepancy == parM.Discrepancy &&
		serialM.Fit.PMin == parM.Fit.PMin &&
		serialM.Fit.Alpha == parM.Fit.Alpha &&
		serialM.Fit.AICc == parM.Fit.AICc
	for i := range serialM.Responses {
		if serialM.Responses[i] != parM.Responses[i] {
			rep.Identical = false
		}
	}
	if !rep.Identical {
		log.Fatal("serial and parallel pipelines produced different models")
	}

	// Stage: best-of-K LHS discrepancy scoring.
	space := design.PaperSpace()
	rep.Stages["best_lhs"] = timing(*repeats,
		func() { sample.BestLHSWorkers(space, *size, *cands, rand.New(rand.NewSource(3)), 1) },
		func() { sample.BestLHSWorkers(space, *size, *cands, rand.New(rand.NewSource(3)), 0) })

	// Stage: Warnock L2-star discrepancy kernel on one large sample.
	pts := sample.LHS(space, 4**size, rand.New(rand.NewSource(5)))
	rep.Stages["star_discrepancy"] = timing(*repeats,
		func() { sample.StarDiscrepancyWorkers(pts, 1) },
		func() { sample.StarDiscrepancyWorkers(pts, 0) })

	// Stage: design-point simulation (fresh evaluator per leg).
	simStage := func(workers int) func() {
		return func() {
			ev, err := core.NewSimEvaluator(*bench, *insts)
			if err != nil {
				log.Fatal(err)
			}
			core.NewTestSetWorkers(context.Background(), ev, nil, *testN, 80, workers) // fails only on a done ctx
		}
	}
	rep.Stages["simulate"] = timing(*repeats, simStage(1), simStage(0))

	// Stage: (p_min, α) grid search on the already-simulated sample.
	xs := make([][]float64, len(serialM.Points))
	for i, p := range serialM.Points {
		xs[i] = p
	}
	grid := rbf.Options{PMinGrid: []int{1, 2}, AlphaGrid: []float64{3, 5, 7, 9, 12}}
	rep.Stages["rbf_grid"] = timing(*repeats,
		func() {
			o := grid
			o.Workers = 1
			if _, err := rbf.Fit(xs, serialM.Responses, o); err != nil {
				log.Fatal(err)
			}
		},
		func() {
			o := grid
			o.Workers = 0
			if _, err := rbf.Fit(xs, serialM.Responses, o); err != nil {
				log.Fatal(err)
			}
		})

	f, err := os.Create(*outFile)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pipeline: serial %.2fs, parallel %.2fs → %.2fx on %d CPUs (models bit-identical)\n",
		rep.Pipeline.SerialSec, rep.Pipeline.ParallelSec, rep.Pipeline.Speedup, rep.Host.CPUs)
	for name, tm := range rep.Stages {
		fmt.Printf("  %-18s serial %.3fs, parallel %.3fs → %.2fx\n", name, tm.SerialSec, tm.ParallelSec, tm.Speedup)
	}
	fmt.Printf("report written to %s\n", *outFile)
}
