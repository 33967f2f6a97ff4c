// Command benchcluster measures what the distributed evaluation farm
// costs and buys, and writes the comparison to BENCH_cluster.json
// (override with -out):
//
//   - local: scoring a cold batch of configurations with the in-process
//     core.SimEvaluator fanned across all CPUs — the baseline every
//     remote leg is compared against;
//   - remote: the same cold batch through cluster.RemoteEvaluator over
//     farms of 1, 2, and 4 sim workers (in-process httptest servers, so
//     the legs quantify protocol + scheduling overhead and the scaling
//     shape, not network distance);
//   - router: single-prediction latency against a predserve shard
//     directly versus through the consistent-hash router fronting two
//     shards, quantifying the per-hop proxy cost.
//
// Before any timing, a fresh farm scores the full batch and every value
// is checked bit-for-bit against the local simulator — the farm is the
// same arithmetic behind an HTTP hop, and the report says so explicitly.
// Each timed leg then runs on freshly built workers and evaluators so
// every leg pays the same cold simulation cost.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/par"
	"predperf/internal/sample"
	"predperf/internal/serve"
)

// Report is the JSON schema of BENCH_cluster.json.
type Report struct {
	Host   Host   `json:"host"`
	Config Config `json:"config"`
	// BitIdentical: every remote value matched the local simulator bit
	// for bit before any leg was timed.
	BitIdentical bool         `json:"bit_identical_remote_vs_local"`
	Local        Leg          `json:"local"`
	Remote       []RemoteLeg  `json:"remote"`
	Router       RouterReport `json:"router"`
}

// Host records the hardware the rates were measured on.
type Host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// Config records the workload the rates were taken at.
type Config struct {
	Benchmark  string `json:"benchmark"`
	TraceLen   int    `json:"trace_len"`
	Configs    int    `json:"configs"`
	BatchChunk int    `json:"batch_chunk"`
	RouterReqs int    `json:"router_requests"`
}

// Leg is one throughput measurement: cold configurations per second.
type Leg struct {
	Seconds       float64 `json:"seconds"`
	ConfigsPerSec float64 `json:"configs_per_sec"`
}

// RemoteLeg is a farm size's throughput relative to the baselines.
type RemoteLeg struct {
	Workers int `json:"workers"`
	Leg
	// SpeedupVsOneWorker shows the scaling shape across farm sizes.
	SpeedupVsOneWorker float64 `json:"speedup_vs_one_worker"`
	// RatioVsLocal < 1 on one host: the farm adds an HTTP hop to the
	// same CPUs. It quantifies the overhead dedicated machines amortize.
	RatioVsLocal float64 `json:"ratio_vs_local"`
}

// RouterReport compares direct-to-shard and through-router latency.
type RouterReport struct {
	DirectP50Micros float64 `json:"direct_p50_us"`
	DirectP95Micros float64 `json:"direct_p95_us"`
	RoutedP50Micros float64 `json:"routed_p50_us"`
	RoutedP95Micros float64 `json:"routed_p95_us"`
	// OverheadP50Micros is the router's median per-request proxy cost.
	OverheadP50Micros float64 `json:"overhead_p50_us"`
}

// freshConfigs draws n distinct on-grid configurations deterministically.
func freshConfigs(n int) []design.Config {
	space := design.PaperSpace()
	pts := sample.LHS(space, n, rand.New(rand.NewSource(41)))
	cfgs := make([]design.Config, n)
	for i, pt := range pts {
		cfgs[i] = space.Decode(pt, n)
	}
	return cfgs
}

// newFarm starts w in-process sim workers and a pool over them.
func newFarm(w, chunk int) (*cluster.Pool, func(), error) {
	urls := make([]string, w)
	servers := make([]*httptest.Server, w)
	for i := range urls {
		servers[i] = httptest.NewServer(cluster.NewWorker(cluster.WorkerOptions{
			ID: "bench-" + strconv.Itoa(i),
		}).Handler())
		urls[i] = servers[i].URL
	}
	stop := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	pool, err := cluster.NewPool(urls, cluster.PoolOptions{BatchChunk: chunk})
	if err != nil {
		stop()
		return nil, nil, err
	}
	return pool, stop, nil
}

func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i].Microseconds())
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcluster: ")

	bench := flag.String("bench", "mcf", "benchmark workload")
	insts := flag.Int("insts", 20_000, "trace length in dynamic instructions")
	nCfg := flag.Int("configs", 64, "cold configurations per leg")
	chunk := flag.Int("chunk", 8, "configs per remote eval request")
	farms := flag.String("workers", "1,2,4", "comma-separated farm sizes")
	routerReqs := flag.Int("router-iters", 200, "requests per router-latency leg")
	outFile := flag.String("out", "BENCH_cluster.json", "report destination")
	flag.Parse()

	var sizes []int
	for _, s := range strings.Split(*farms, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			log.Fatalf("bad -workers entry %q", s)
		}
		sizes = append(sizes, n)
	}
	cfgs := freshConfigs(*nCfg)

	// Local reference values — also the bit-identity oracle.
	ref, err := core.NewSimEvaluator(*bench, *insts)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	want, _ := ref.Eval(ctx, cfgs) // an in-process simulator fails only on a done ctx

	// Bit-identity gate: a fresh 2-worker farm must reproduce every
	// value exactly before anything is timed.
	pool, stop, err := newFarm(2, *chunk)
	if err != nil {
		log.Fatal(err)
	}
	remote := cluster.NewRemoteEvaluator(pool, *bench, *insts, cluster.RemoteOptions{})
	got, err := remote.Eval(ctx, cfgs)
	stop()
	if err != nil {
		log.Fatalf("identity gate: %v", err)
	}
	for i := range cfgs {
		if got[i] != want[i] {
			log.Fatalf("config %d: remote %v != local %v — refusing to benchmark", i, got[i], want[i])
		}
	}
	fmt.Printf("identity gate: %d remote values bit-identical to the local simulator\n", len(cfgs))

	rep := Report{
		Host: Host{
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
		},
		Config: Config{
			Benchmark: *bench, TraceLen: *insts, Configs: len(cfgs),
			BatchChunk: *chunk, RouterReqs: *routerReqs,
		},
		BitIdentical: true,
	}

	// Local leg: cold evaluator, all CPUs.
	localEv, err := core.NewSimEvaluator(*bench, *insts)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	par.For(par.Workers(0), len(cfgs), func(i int) { localEv.EvalRan(cfgs[i]) })
	rep.Local.Seconds = time.Since(t0).Seconds()
	rep.Local.ConfigsPerSec = float64(len(cfgs)) / rep.Local.Seconds
	fmt.Printf("local: %.0f configs/s\n", rep.Local.ConfigsPerSec)

	// Remote legs: fresh farm per size so every leg pays cold sims.
	var oneWorker float64
	for _, w := range sizes {
		pool, stop, err := newFarm(w, *chunk)
		if err != nil {
			log.Fatal(err)
		}
		remote := cluster.NewRemoteEvaluator(pool, *bench, *insts, cluster.RemoteOptions{})
		t0 := time.Now()
		if _, err := remote.Eval(ctx, cfgs); err != nil {
			log.Fatalf("remote leg (%d workers): %v", w, err)
		}
		leg := RemoteLeg{Workers: w}
		leg.Seconds = time.Since(t0).Seconds()
		leg.ConfigsPerSec = float64(len(cfgs)) / leg.Seconds
		stop()
		if w == sizes[0] {
			oneWorker = leg.ConfigsPerSec
		}
		if oneWorker > 0 {
			leg.SpeedupVsOneWorker = leg.ConfigsPerSec / oneWorker
		}
		if rep.Local.ConfigsPerSec > 0 {
			leg.RatioVsLocal = leg.ConfigsPerSec / rep.Local.ConfigsPerSec
		}
		rep.Remote = append(rep.Remote, leg)
		fmt.Printf("remote %d worker(s): %.0f configs/s (%.2fx vs %d worker, %.2fx vs local)\n",
			w, leg.ConfigsPerSec, leg.SpeedupVsOneWorker, sizes[0], leg.RatioVsLocal)
	}

	// Router leg: one synthetic model on two shards, single predictions
	// direct versus routed.
	rep.Router = routerLatency(*routerReqs)
	fmt.Printf("router: direct p50 %.0fµs, routed p50 %.0fµs (overhead %.0fµs)\n",
		rep.Router.DirectP50Micros, rep.Router.RoutedP50Micros, rep.Router.OverheadP50Micros)

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
	fmt.Printf("report written to %s\n", *outFile)
}

// routerLatency measures single-prediction latency direct to the owning
// shard versus through the router.
func routerLatency(iters int) RouterReport {
	m, err := core.BuildRBFModel(core.FuncEvaluator(func(c design.Config) float64 {
		return 1 + float64(c.PipeDepth)/24 + 12/float64(c.ROBSize)
	}), 40, core.Options{LHSCandidates: 16, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	m.Name = "bench"

	var shards []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Options{})
		if err := s.Registry().Add(m.Name, m, ""); err != nil {
			log.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		shards = append(shards, ts.URL)
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{Shards: shards, SyncInterval: -1})
	if err != nil {
		log.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	primary, _ := rt.Ring().Lookup(m.Name)

	body := `{"model":"bench","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}`
	measure := func(url string) []time.Duration {
		lat := make([]time.Duration, 0, iters)
		for i := 0; i < iters+5; i++ {
			t0 := time.Now()
			resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
			if err != nil {
				log.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				log.Fatalf("predict against %s answered %d", url, resp.StatusCode)
			}
			if i >= 5 { // discard warmup
				lat = append(lat, time.Since(t0))
			}
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		return lat
	}
	direct := measure(primary)
	routed := measure(rts.URL)
	return RouterReport{
		DirectP50Micros:   percentile(direct, 0.5),
		DirectP95Micros:   percentile(direct, 0.95),
		RoutedP50Micros:   percentile(routed, 0.5),
		RoutedP95Micros:   percentile(routed, 0.95),
		OverheadP50Micros: percentile(routed, 0.5) - percentile(direct, 0.5),
	}
}
