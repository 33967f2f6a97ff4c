// Command predserve serves trained CPI models over HTTP: the inference
// side of the paper's pipeline. predperf -save produces model files;
// predserve loads them into a named registry and answers prediction,
// search, and introspection requests until it is told to drain.
//
// Usage:
//
//	predperf -bench mcf -sample 90 -save models/mcf.json
//	predserve -models models                  # serve every *.json in models/
//	predserve -model models/mcf.json          # serve one file
//	predserve -addr 127.0.0.1:0 -models m     # random port (printed on stdout)
//
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/v1/predict -d \
//	  '{"model":"mcf","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}'
//	curl localhost:8080/metricz?format=prom   # Prometheus text exposition
//
// Every request is stamped with an X-Request-Id (the client's, if
// sent; generated otherwise), echoed in the response and written to
// the JSON-lines access log (-access-log: "stderr" by default, "off"
// to disable, or a file path to append to) with method, path, status,
// bytes, and duration. /metricz serves counters, gauges, per-route
// latency histograms, and spans as JSON, or as Prometheus text with
// ?format=prom; -pprof serves net/http/pprof on a side address.
//
// A single prediction is scored directly by the RBF network; an
// explicit batch request goes to the vectorized evaluator, which
// answers bit-identically to scoring its configurations one at a time.
//
// Operational endpoints beyond /healthz: /readyz answers 503 with
// structured reasons while the registry is empty, an SLO burn rate
// (-slo-latency, -slo-availability, -burn-threshold) exceeds its
// threshold, or a model drifts from the simulator under shadow
// sampling (-shadow-frac, -shadow-workers, -shadow-err-pct); /alertz
// lists firing and resolved alerts with timestamps; /statusz is a
// self-contained HTML dashboard.
//
// With -retrain, drift closes the loop instead of only flipping
// readiness: a model whose drift alert fires for -retrain-after is
// rebuilt in the background at escalated sample sizes (-retrain-sizes,
// stopping at -retrain-target-pct mean test error), hot-swapped into
// the registry under a new generation, and persisted atomically back
// into -models. Retrains are single-flight per model, bounded by
// -retrain-max-concurrent, and cooled down by -retrain-cooldown after
// success and failure alike; progress shows up in serve_retrains
// counters, /statusz, /alertz, and as non-failing notes in /readyz.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener closes
// immediately, in-flight requests get -drain to finish, and the process
// exits 0 on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/obs"
	"predperf/internal/serve"
)

// parseSizes turns the -retrain-sizes flag ("60,90,120") into the
// escalation ladder; malformed or non-positive entries are fatal, an
// empty flag means automatic escalation.
func parseSizes(s string) []int {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			log.Fatalf("-retrain-sizes: %q is not a positive integer", part)
		}
		out = append(out, n)
	}
	return out
}

// sampleRate maps the -trace-sample flag onto Options semantics, where
// the zero value means "default to 1.0": a flag value of 0 must disable
// tracing, so it maps to the negative sentinel.
func sampleRate(f float64) float64 {
	if f <= 0 {
		return -1
	}
	return f
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("predserve: ")

	version := flag.Bool("version", false, "print build info (Go version, model format, VCS revision) and exit")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	modelsDir := flag.String("models", "", "directory of *.json models to load at startup (also anchors relative /v1/models/load paths)")
	modelFiles := flag.String("model", "", "comma-separated model files to load at startup")
	cacheSize := flag.Int("cache", 4096, "prediction LRU cache entries (negative disables)")
	workers := flag.Int("workers", 0, "batch-predict worker goroutines (0 = all CPUs)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	maxBody := flag.Int64("max-body", 1<<20, "request body size limit in bytes")
	maxBatch := flag.Int("max-batch", 4096, "configurations allowed in one predict request")
	searchInsts := flag.Int("search-insts", 50_000, "trace length for simulator-verified /v1/search")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	progress := flag.Bool("progress", false, "print periodic request counters to stderr")
	accessLog := flag.String("access-log", "stderr", `JSON-lines access log destination: "stderr", "off", or a file path (appended)`)
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off by default")
	sloLatency := flag.Duration("slo-latency", 250*time.Millisecond, "latency SLO: a request is good when it completes within this duration")
	sloAvail := flag.Float64("slo-availability", 0.999, "target good fraction for the latency and availability SLOs (0 < x < 1)")
	burnThreshold := flag.Float64("burn-threshold", obs.DefBurnThreshold, "SLO burn rate above which /readyz reports unready")
	shadowFrac := flag.Float64("shadow-frac", 0, "fraction of served predictions re-checked on the cycle-level simulator (0 disables, 1 checks everything)")
	shadowWorkers := flag.Int("shadow-workers", 1, "background shadow-simulation worker goroutines")
	shadowErr := flag.Float64("shadow-err-pct", 25, "windowed mean shadow error (percent) above which a model counts as drifting (negative never trips)")
	retrain := flag.Bool("retrain", false, "rebuild drifting models at escalated sample sizes and hot-swap the winner (requires -shadow-frac > 0 to ever trigger)")
	retrainSizes := flag.String("retrain-sizes", "", "comma-separated escalation ladder of sample sizes; only sizes above the serving model's are built (empty = 2x/3x/4x the serving size)")
	retrainTarget := flag.Float64("retrain-target-pct", 5, "stop the retrain escalation once mean test error drops to this percentage")
	retrainCooldown := flag.Duration("retrain-cooldown", 10*time.Minute, "per-model pause after a retrain (success or failure) before another may start")
	retrainMax := flag.Int("retrain-max-concurrent", 1, "simultaneous retrains across all models")
	retrainAfter := flag.Duration("retrain-after", 30*time.Second, "how long a model's drift alert must fire continuously before a retrain starts")
	retrainPoll := flag.Duration("retrain-poll", 10*time.Second, "drift-state poll cadence of the retrain controller")
	retrainTestPoints := flag.Int("retrain-test-points", 24, "simulator-backed test points driving the retrain stopping rule")
	retrainWorkers := flag.Int("retrain-workers", 1, "worker goroutines for one background retrain build")
	simWorkers := flag.String("sim-workers", "", "comma-separated simworker base URLs; when set, search verification, shadow re-simulation, and retrain builds fan out to the evaluation farm instead of simulating in-process")
	traceSample := flag.Float64("trace-sample", 1, "fraction of edge requests that record a distributed trace into /tracez (0 disables; downstream hops inherit the edge's decision)")
	traceSampleMax := flag.Float64("trace-sample-max", 0, "ceiling for SLO-burn-adaptive sampling: while a declared SLO burns, the edge rate ramps from -trace-sample toward this value and decays back once the burn clears (0 keeps the rate static)")
	traceAdaptEvery := flag.Duration("trace-adapt-every", 10*time.Second, "cadence of the adaptive trace-sampling control loop (only runs when -trace-sample-max enables it)")
	traceStore := flag.Int("trace-store", 64, "traces retained per /tracez class (errors, kept outliers, reservoir sample)")
	flag.Parse()

	if *version {
		b := serve.Build()
		fmt.Printf("predserve %s model-format %d", b.GoVersion, b.ModelFormat)
		if b.Revision != "" {
			fmt.Printf(" rev %s", b.Revision)
			if b.Modified {
				fmt.Print(" (modified)")
			}
		}
		fmt.Println()
		return
	}

	// Span timing is always on: /metricz is part of the API, and the
	// enabled-path cost is two clock reads per timed request. Runtime
	// gauges and the window-rotation ticker keep /statusz and the burn
	// rates current even when no requests arrive to drive lazy rotation.
	obs.Enable()
	obs.RegisterRuntimeMetrics()
	stopRotation := obs.StartWindowRotation(obs.DefWindowBucket)
	defer stopRotation()
	if *progress {
		stop := obs.StartProgress(os.Stderr, 2*time.Second)
		defer stop()
	}
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	var accessW io.Writer
	switch *accessLog {
	case "off", "":
		// disabled
	case "stderr":
		accessW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("opening access log: %v", err)
		}
		defer f.Close()
		accessW = f
	}

	var simPool *cluster.Pool
	if *simWorkers != "" {
		var urls []string
		for _, u := range strings.Split(*simWorkers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		var err error
		simPool, err = cluster.NewPool(urls, cluster.PoolOptions{})
		if err != nil {
			log.Fatalf("-sim-workers: %v", err)
		}
		log.Printf("sim-worker pool: %s", strings.Join(simPool.Workers(), ", "))
	}

	srv := serve.New(serve.Options{
		MaxBodyBytes:   *maxBody,
		Timeout:        *timeout,
		CacheSize:      *cacheSize,
		Workers:        *workers,
		MaxBatch:       *maxBatch,
		SearchTraceLen: *searchInsts,
		ModelDir:       *modelsDir,
		AccessLog:      accessW,

		SLOLatency:      *sloLatency,
		SLOAvailability: *sloAvail,
		BurnThreshold:   *burnThreshold,
		ShadowFraction:  *shadowFrac,
		ShadowWorkers:   *shadowWorkers,
		ShadowErrPct:    *shadowErr,

		Retrain:              *retrain,
		RetrainSizes:         parseSizes(*retrainSizes),
		RetrainTargetPct:     *retrainTarget,
		RetrainCooldown:      *retrainCooldown,
		RetrainMaxConcurrent: *retrainMax,
		RetrainAfter:         *retrainAfter,
		RetrainPoll:          *retrainPoll,
		RetrainTestPoints:    *retrainTestPoints,
		RetrainWorkers:       *retrainWorkers,

		SimPool: simPool,

		TraceSample:        sampleRate(*traceSample),
		TraceSampleMax:     *traceSampleMax,
		TraceAdaptInterval: *traceAdaptEvery,
		TraceStoreSize:     *traceStore,
	})
	if *retrain && *shadowFrac <= 0 {
		log.Print("warning: -retrain has no trigger without shadow monitoring; set -shadow-frac > 0")
	}
	if *modelsDir != "" {
		names, err := srv.Registry().LoadDir("")
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d model(s) from %s: %s", len(names), *modelsDir, strings.Join(names, ", "))
	}
	if *modelFiles != "" {
		for _, p := range strings.Split(*modelFiles, ",") {
			name, err := srv.Registry().LoadFile(strings.TrimSpace(p), "")
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("loaded model %q from %s", name, p)
		}
	}
	if srv.Registry().Len() == 0 {
		log.Print("warning: no models loaded; hot-load with POST /v1/models/load")
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The resolved address goes to stdout so scripts using -addr :0 can
	// discover the port.
	fmt.Printf("predserve: listening on %s\n", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		if err != nil {
			log.Fatal(err)
		}
	case <-ctx.Done():
		stop()
		log.Printf("signal received, draining (deadline %s)", *drain)
		if err := srv.Shutdown(*drain); err != nil {
			log.Fatalf("drain failed: %v", err)
		}
		<-serveErr
		log.Print("shut down cleanly")
	}
}
