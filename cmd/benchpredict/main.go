// Command benchpredict measures single-prediction throughput across the
// three evaluation paths that now exist for a fitted RBF model, and
// writes the comparison to BENCH_predict.json (override with -out):
//
//   - scalar: per-point Network.Predict with the hoisted 1/r² cache
//     (plus a scalar_nohoist leg that re-divides per call, quantifying
//     the hoist on its own);
//   - vectorized: the compiled SoA evaluator (rbf.Compiled), one
//     blocked design-matrix pass per batch;
//   - http-single: concurrent single HTTP /v1/predict requests against
//     an in-process predserve handler with its LRU cache off, so the
//     measured rate is the direct path a single prediction takes in
//     production: HTTP, decode, quantize, scalar evaluation, encode.
//
// Every leg is checked bit-for-bit against the scalar path before any
// timing is reported: the three paths are the same arithmetic in a
// different loop order, and the report says so explicitly.
//
// Batch size doubles as the concurrency of the http-single leg — a
// batch of 64 means 64 goroutines posting singles at once.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/rbf"
	"predperf/internal/sample"
	"predperf/internal/serve"
)

// Report is the JSON schema of BENCH_predict.json.
type Report struct {
	Host    Host          `json:"host"`
	Config  Config        `json:"config"`
	Batches []BatchResult `json:"batches"`
	// BitIdentical: scalar (hoisted and unhoisted), vectorized, and
	// HTTP-single values all matched bit for bit on every input.
	BitIdentical bool `json:"bit_identical_all_paths"`
}

// Host records the hardware the rates were measured on.
type Host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// Config records the model and workload the rates were taken at.
type Config struct {
	Benchmark     string `json:"benchmark"`
	TraceLen      int    `json:"trace_len"`
	SampleSize    int    `json:"sample_size"`
	Bases         int    `json:"rbf_bases"`
	Dims          int    `json:"dims"`
	LHSCandidates int    `json:"lhs_candidates"`
	HTTPRequests  int    `json:"http_requests_per_worker"`
}

// BatchResult is one batch size's throughput across the paths, in
// predictions per second.
type BatchResult struct {
	Batch            int     `json:"batch"`
	ScalarNoHoistOps float64 `json:"scalar_nohoist_ops_per_sec"`
	ScalarOps        float64 `json:"scalar_ops_per_sec"`
	VectorizedOps    float64 `json:"vectorized_ops_per_sec"`
	HTTPSingleOps    float64 `json:"http_single_ops_per_sec"`
	// RatioVectorizedOverScalar > 1 means the blocked batch pass beat
	// per-point evaluation at this batch size.
	RatioVectorizedOverScalar float64 `json:"ratio_vectorized_over_scalar"`
	RatioScalarOverNoHoist    float64 `json:"ratio_scalar_over_nohoist"`
}

// rate times fn — which processes n predictions per call — repeatedly
// until minTime has elapsed, and returns predictions per second.
func rate(n int, minTime time.Duration, fn func()) float64 {
	iters := 0
	t0 := time.Now()
	for time.Since(t0) < minTime || iters == 0 {
		fn()
		iters++
	}
	return float64(n*iters) / time.Since(t0).Seconds()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchpredict: ")

	bench := flag.String("bench", "mcf", "benchmark workload")
	insts := flag.Int("insts", 30_000, "trace length in dynamic instructions")
	size := flag.Int("sample", 60, "training sample size")
	cands := flag.Int("lhs", 16, "latin hypercube candidates")
	batches := flag.String("batches", "1,8,64,512", "comma-separated batch sizes (doubles as http-single-leg concurrency)")
	minTime := flag.Duration("mintime", 200*time.Millisecond, "minimum measurement time per in-process leg")
	httpReqs := flag.Int("http-iters", 20, "requests per worker in the http-single leg")
	outFile := flag.String("out", "BENCH_predict.json", "report destination")
	flag.Parse()

	var sizes []int
	maxBatch := 0
	for _, s := range strings.Split(*batches, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			log.Fatalf("bad -batches entry %q", s)
		}
		sizes = append(sizes, n)
		if n > maxBatch {
			maxBatch = n
		}
	}

	// Train the model the legs will share.
	ev, err := core.NewSimEvaluator(*bench, *insts)
	if err != nil {
		log.Fatal(err)
	}
	m, err := core.BuildRBFModel(ev, *size, core.Options{LHSCandidates: *cands, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	m.Name = *bench
	net := m.Fit.Net

	// Evaluation inputs: a fresh LHS over the model's space, decoded to
	// concrete on-grid configurations (so serve-side quantization is the
	// identity) and re-encoded to model coordinates.
	pts := sample.LHS(m.Space, maxBatch, rand.New(rand.NewSource(17)))
	cfgs := make([]design.Config, maxBatch)
	xs := make([][]float64, maxBatch)
	for i, pt := range pts {
		cfgs[i] = m.Space.Decode(pt, m.SampleSize)
		xs[i] = m.Space.Encode(cfgs[i])
	}

	// An unhoisted twin: same centers, radii, and weights, but built
	// from exported fields only, so no cached 1/r² — Eval falls back to
	// dividing per call. Bit-identical by construction (the fallback
	// uses the same d²·(1/(r·r)) expression).
	noHoist := &rbf.Network{Weights: net.Weights}
	for _, b := range net.Bases {
		noHoist.Bases = append(noHoist.Bases, rbf.Basis{Center: b.Center, Radius: b.Radius})
	}

	// Reference values + cross-path identity check, before any timing.
	want := make([]float64, maxBatch)
	for i, x := range xs {
		want[i] = net.Predict(x)
	}
	identical := true
	vec := m.Fit.PredictBatch(xs)
	for i := range xs {
		if vec[i] != want[i] || noHoist.Predict(xs[i]) != want[i] {
			identical = false
		}
	}
	if !identical {
		log.Fatal("evaluation paths disagree before timing — refusing to benchmark")
	}

	// The http-single leg's server: LRU cache disabled so every request
	// pays for real evaluation.
	srv := serve.New(serve.Options{CacheSize: -1})
	if err := srv.Registry().Add(m.Name, m, ""); err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bodies := make([]string, maxBatch)
	for i, c := range cfgs {
		bodies[i] = fmt.Sprintf(
			`{"model":%q,"config":{"depth":%d,"rob":%d,"iq":%d,"lsq":%d,"l2kb":%d,"l2lat":%d,"il1kb":%d,"dl1kb":%d,"dl1lat":%d}}`,
			m.Name, c.PipeDepth, c.ROBSize, c.IQSize, c.LSQSize,
			c.L2SizeKB, c.L2Lat, c.IL1SizeKB, c.DL1SizeKB, c.DL1Lat)
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
			Bases: len(net.Bases), Dims: m.Space.N(),
			LHSCandidates: *cands, HTTPRequests: *httpReqs,
		},
		BitIdentical: identical,
	}

	cm := m.Fit.Compiled()
	out := make([]float64, maxBatch)
	for _, n := range sizes {
		br := BatchResult{Batch: n}
		br.ScalarNoHoistOps = rate(n, *minTime, func() {
			for i := 0; i < n; i++ {
				noHoist.Predict(xs[i])
			}
		})
		br.ScalarOps = rate(n, *minTime, func() {
			for i := 0; i < n; i++ {
				net.Predict(xs[i])
			}
		})
		br.VectorizedOps = rate(n, *minTime, func() {
			cm.PredictBatchTo(out[:n], xs[:n])
		})
		ok := true
		br.HTTPSingleOps = httpSingleRate(ts.URL, bodies[:n], want[:n], *httpReqs, &ok)
		if !ok {
			rep.BitIdentical = false
		}
		if br.ScalarOps > 0 {
			br.RatioVectorizedOverScalar = br.VectorizedOps / br.ScalarOps
		}
		if br.ScalarNoHoistOps > 0 {
			br.RatioScalarOverNoHoist = br.ScalarOps / br.ScalarNoHoistOps
		}
		rep.Batches = append(rep.Batches, br)
		fmt.Printf("batch %4d: nohoist %.3gM/s  scalar %.3gM/s  vectorized %.3gM/s (%.2fx)  http-single %.3g/s\n",
			n, br.ScalarNoHoistOps/1e6, br.ScalarOps/1e6, br.VectorizedOps/1e6,
			br.RatioVectorizedOverScalar, br.HTTPSingleOps)
	}
	if !rep.BitIdentical {
		log.Fatal("HTTP single responses diverged from the scalar path")
	}

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
	fmt.Printf("all paths bit-identical; report written to %s\n", *outFile)
}

// httpSingleRate runs len(bodies) workers, each posting its single
// configuration reqs times, and returns predictions per second. Every
// response value is checked against the scalar reference; a mismatch
// (or any non-200) clears *ok.
func httpSingleRate(url string, bodies []string, want []float64, reqs int, ok *bool) float64 {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        len(bodies) + 10,
		MaxIdleConnsPerHost: len(bodies) + 10,
	}}
	defer client.CloseIdleConnections()
	var bad sync.Once
	fail := func() { bad.Do(func() { *ok = false }) }
	run := func(warm bool) time.Duration {
		n := reqs
		if warm {
			n = 1
		}
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := range bodies {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for r := 0; r < n; r++ {
					resp, err := client.Post(url+"/v1/predict", "application/json", strings.NewReader(bodies[w]))
					if err != nil {
						fail()
						return
					}
					var pr struct {
						Predictions []struct {
							Value float64 `json:"value"`
						} `json:"predictions"`
					}
					err = json.NewDecoder(resp.Body).Decode(&pr)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK ||
						len(pr.Predictions) != 1 || pr.Predictions[0].Value != want[w] {
						fail()
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return time.Since(t0)
	}
	run(true) // warm connections and code paths
	elapsed := run(false)
	return float64(len(bodies)*reqs) / elapsed.Seconds()
}
