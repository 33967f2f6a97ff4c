// Command perfbench is the repository benchmark. Every workload is one
// model lifecycle driven through the repository's own binaries with
// their default flags (apart from addresses, sizes and the seed): a
// gate build checked against an in-process replica, timed model builds
// with predperf (locally, or through fresh simworker processes), then
// predserve serving the gate's model under an open-loop and a
// closed-loop request mix. The workload decides which part carries the
// weight; see NOTES.md for why each workload exists.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 24 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics of a traced run: the
// layer budget from predperf's own stage spans (-report -trace), leaf
// calls timed in-process, and the servers' counters. Correctness gates
// run before any timing; a mismatch sets "correct" to false and counts
// as a failed operation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Build sizes handed to predperf. Everything else stays at its default
// (-sample 90, -test 50, -lhs 100, -parallel all CPUs).
const (
	traceInsts  = 40_000
	sampleSize  = 90
	testPoints  = 50
	lhsCands    = 100
	gateSeed    = 1   // predperf's default -seed: the gate builds the same model every run
	serveStarts = 9   // predserve launches per serve-workload run; setup_s is their median
	predictRate = 300 // open-loop requests per second
	openSlice   = 0.5 // s of open loop after each timed build (build, farm)
	openShare   = 0.6 // of --seconds, the serve workload's open loop
)

// workload is one model lifecycle: which profile is built, whether the
// builds go through the simulator farm, and how the timed builds run.
type workload struct {
	name  string
	bench string
	farm  bool
	// buildShare is the share of --seconds taken by the timed builds,
	// each followed by an open-loop slice of openSlice seconds, so the
	// latencies sample the host over the whole run as the builds do; the
	// closed loop takes the rest. 0 marks the serve workload: its open
	// loop runs in one piece for openShare of --seconds, and its set-up
	// and memory metrics are predserve's.
	buildShare float64
	// builds is the least number of timed builds before the closed loop,
	// buildsAfter the number after it.
	builds, buildsAfter int
}

var workloads = map[string]workload{
	"build": {name: "build", bench: "mcf", buildShare: 0.85, builds: 4},
	"farm":  {name: "farm", bench: "crafty", farm: true, buildShare: 0.85, builds: 4},
	// The serve workload times its builds at both ends of the run: the
	// host's speed drifts over tens of seconds, and builds taken
	// back to back would all see the same moment of it.
	"serve": {name: "serve", bench: "mcf", builds: 2, buildsAfter: 2},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and tallies.
type run struct {
	wl      workload
	seed    int64
	seconds float64
	traced  bool
	bin     string // directory holding predperf, simworker, predserve
	work    string // scratch directory for model files and logs

	attempted, failed int
	correct           bool
	metrics           map[string]metric
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records one gated operation; a false ok marks the run incorrect.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.correct = false
		fmt.Printf("CHECK FAILED: "+format+"\n", args...)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	name := flag.String("workload", "", "workload: build, farm or serve")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measured duration of one run")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	bin := flag.String("bin", "", "directory with the predperf, simworker and predserve binaries")
	work := flag.String("work", "", "scratch directory (created, then removed)")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 || *seed < 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, b := range []string{"predperf", "simworker", "predserve"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			log.Fatalf("missing binary: %v", err)
		}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(*work)

	r := &run{
		wl: wl, seed: *seed, seconds: *seconds, traced: *traced == 1,
		bin: *bin, work: *work, correct: true, metrics: map[string]metric{},
	}
	fmt.Printf("host: cpus=%d gomaxprocs=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	t0 := time.Now()
	if err := r.lifecycle(); err != nil {
		// Set-up failures (a binary that will not start, a server that
		// never answers) leave nothing to measure: no result line.
		log.Printf("%s: %v", wl.name, err)
		os.RemoveAll(*work)
		os.Exit(1)
	}
	fmt.Printf("run: workload=%s seed=%d trace=%v took %.1fs\n", wl.name, *seed, r.traced, time.Since(t0).Seconds())
	out, err := json.Marshal(result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}
