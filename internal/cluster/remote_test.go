package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"predperf"
	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/evaltest"
	"predperf/internal/obs"
	"predperf/internal/rbf"
)

const (
	testBench = "mcf"
	testInsts = 2000
)

// newWorkerServer starts a sim worker over httptest and returns its URL.
func newWorkerServer(t *testing.T, opt cluster.WorkerOptions) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(cluster.NewWorker(opt).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func newFarm(t *testing.T, workers int, opt cluster.PoolOptions) *cluster.Pool {
	t.Helper()
	urls := make([]string, workers)
	for i := range urls {
		urls[i] = newWorkerServer(t, cluster.WorkerOptions{}).URL
	}
	pool, err := cluster.NewPool(urls, opt)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// ---- worker endpoint ----

func postEval(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/eval", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("non-JSON error body %q: %v", body, err)
	}
	return e.Error.Code
}

func TestWorkerEvalValidation(t *testing.T) {
	srv := newWorkerServer(t, cluster.WorkerOptions{MaxBatch: 2, MaxTraceLen: 10_000})
	goodCfg := `{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}`

	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"missing benchmark", `{"trace_len":1000,"configs":[` + goodCfg + `]}`, 400, "bad_request"},
		{"zero trace", `{"benchmark":"mcf","trace_len":0,"configs":[` + goodCfg + `]}`, 400, "bad_request"},
		{"trace too long", `{"benchmark":"mcf","trace_len":99999999,"configs":[` + goodCfg + `]}`, 400, "trace_too_long"},
		{"no configs", `{"benchmark":"mcf","trace_len":1000,"configs":[]}`, 400, "bad_request"},
		{"batch too large", `{"benchmark":"mcf","trace_len":1000,"configs":[` + goodCfg + `,` + goodCfg + `,` + goodCfg + `]}`, 413, "batch_too_large"},
		{"bad metric", `{"benchmark":"mcf","trace_len":1000,"metric":"nope","configs":[` + goodCfg + `]}`, 400, "bad_request"},
		{"invalid config", `{"benchmark":"mcf","trace_len":1000,"configs":[{"depth":0,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}]}`, 400, "invalid_config"},
		{"unknown benchmark", `{"benchmark":"nosuch","trace_len":1000,"configs":[` + goodCfg + `]}`, 400, "unknown_benchmark"},
		{"unknown field", `{"benchmark":"mcf","trace_len":1000,"zzz":1,"configs":[` + goodCfg + `]}`, 400, "bad_json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postEval(t, srv.URL, c.body)
			if resp.StatusCode != c.status || errCode(t, body) != c.code {
				t.Fatalf("status %d code %q, want %d %q (body %s)",
					resp.StatusCode, errCode(t, body), c.status, c.code, body)
			}
		})
	}

	// Wrong method.
	resp, err := http.Get(srv.URL + "/v1/eval")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/eval = %d, want 405", resp.StatusCode)
	}
}

func TestWorkerEvalBitIdentical(t *testing.T) {
	srv := newWorkerServer(t, cluster.WorkerOptions{})
	cfgs := evaltest.Configs(6)
	req := cluster.EvalRequest{Benchmark: testBench, TraceLen: testInsts}
	for _, c := range cfgs {
		req.Configs = append(req.Configs, cluster.FromConfig(c))
	}
	js, _ := json.Marshal(req)
	resp, body := postEval(t, srv.URL, string(js))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval failed: %d %s", resp.StatusCode, body)
	}
	var er cluster.EvalResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Values) != len(cfgs) {
		t.Fatalf("%d values for %d configs", len(er.Values), len(cfgs))
	}
	if er.Sims != len(cfgs) {
		t.Fatalf("first request paid %d sims for %d fresh configs", er.Sims, len(cfgs))
	}
	local, err := core.NewSimEvaluator(testBench, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cfgs {
		if want := evaltest.One(t, local, c); er.Values[i] != want {
			t.Fatalf("config %d: remote %v != local %v", i, er.Values[i], want)
		}
	}

	// The worker memoizes: repeating the request costs zero simulations.
	resp, body = postEval(t, srv.URL, string(js))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat eval failed: %d %s", resp.StatusCode, body)
	}
	var er2 cluster.EvalResponse
	json.Unmarshal(body, &er2)
	if er2.Sims != 0 {
		t.Fatalf("repeat request re-simulated %d configs", er2.Sims)
	}
	for i := range er.Values {
		if er2.Values[i] != er.Values[i] {
			t.Fatalf("config %d: cached value drifted", i)
		}
	}
}

// TestWorkerSimsExactUnderOverlap runs two overlapping eval requests
// that share one configuration. Each request's Sims must count only the
// simulations it ran itself, so together they account exactly for the
// worker's evaluator count and its cluster.worker_sims counter.
func TestWorkerSimsExactUnderOverlap(t *testing.T) {
	srv := newWorkerServer(t, cluster.WorkerOptions{Workers: 1})
	const insts = 20000
	healthz := func() (counter, evSims int) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Sims       int `json:"sims"`
			Evaluators []struct {
				Sims int `json:"sims"`
			} `json:"evaluators"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		for _, e := range h.Evaluators {
			evSims += e.Sims
		}
		return h.Sims, evSims
	}
	cfgs := evaltest.Configs(7)
	bodies := make([]string, 2)
	for i, part := range [][]design.Config{cfgs[:4], cfgs[3:]} {
		req := cluster.EvalRequest{Benchmark: testBench, TraceLen: insts}
		for _, c := range part {
			req.Configs = append(req.Configs, cluster.FromConfig(c))
		}
		js, _ := json.Marshal(req)
		bodies[i] = string(js)
	}

	counter0, ev0 := healthz()
	ers := make([]cluster.EvalResponse, len(bodies))
	errs := make(chan error, len(bodies))
	for i, body := range bodies {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/eval", "application/json", strings.NewReader(body))
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&ers[i])
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	for range bodies {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	counter1, ev1 := healthz()

	sum := ers[0].Sims + ers[1].Sims
	if sum != len(cfgs) || ev1-ev0 != sum || counter1-counter0 != sum {
		t.Fatalf("request sims %d + %d = %d; evaluator delta %d, counter delta %d; want all %d",
			ers[0].Sims, ers[1].Sims, sum, ev1-ev0, counter1-counter0, len(cfgs))
	}
}

func TestWorkerRequestIDEcho(t *testing.T) {
	srv := newWorkerServer(t, cluster.WorkerOptions{})
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	req.Header.Set(cluster.RequestIDHeader, "ride-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(cluster.RequestIDHeader); got != "ride-42" {
		t.Fatalf("request ID not echoed: %q", got)
	}
}

// ---- RemoteEvaluator conformance + behavior ----

func TestRemoteEvaluatorConformance(t *testing.T) {
	pool := newFarm(t, 2, cluster.PoolOptions{})
	evaltest.Run(t, evaltest.Harness{
		New: func(t *testing.T) core.Evaluator {
			return cluster.NewRemoteEvaluator(pool, testBench, testInsts, cluster.RemoteOptions{})
		},
		Sims: func(ev core.Evaluator) int {
			return ev.(*cluster.RemoteEvaluator).Simulations()
		},
	})
}

func TestRemoteEvaluatorMatchesLocalAcrossMetrics(t *testing.T) {
	pool := newFarm(t, 2, cluster.PoolOptions{})
	base, err := core.NewSimEvaluator(testBench, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := evaltest.Configs(4)
	for _, metric := range []core.Metric{core.MetricCPI, core.MetricEPI, core.MetricEDP, core.MetricPower} {
		remote := cluster.NewRemoteEvaluator(pool, testBench, testInsts, cluster.RemoteOptions{Metric: metric})
		local := base.WithMetric(metric)
		for i, c := range cfgs {
			if r, l := evaltest.One(t, remote, c), evaltest.One(t, local, c); r != l {
				t.Fatalf("%s config %d: remote %v != local %v", metric, i, r, l)
			}
		}
	}
}

func TestRemoteEvaluatorBatchFansOut(t *testing.T) {
	pool := newFarm(t, 2, cluster.PoolOptions{BatchChunk: 4})
	remote := cluster.NewRemoteEvaluator(pool, testBench, testInsts, cluster.RemoteOptions{})
	cfgs := evaltest.Configs(10)
	requests := obs.NewCounter("cluster.pool_requests")
	r0 := requests.Value()
	vals := evaltest.All(t, remote, cfgs)
	if n := requests.Value() - r0; n != 3 {
		t.Fatalf("10 configs at BatchChunk 4 took %d farm requests, want 3", n)
	}
	local, _ := core.NewSimEvaluator(testBench, testInsts)
	for i, c := range cfgs {
		if want := evaltest.One(t, local, c); vals[i] != want {
			t.Fatalf("config %d: batch value %v != local %v", i, vals[i], want)
		}
	}
	// Batch results land in the cache: per-config Eval is free and equal.
	before := remote.Simulations()
	for i, c := range cfgs {
		if got := evaltest.One(t, remote, c); got != vals[i] {
			t.Fatalf("config %d: Eval after batch %v != %v", i, got, vals[i])
		}
	}
	if after := remote.Simulations(); after != before {
		t.Fatalf("per-config Eval after the batch refetched: %d → %d", before, after)
	}
}

func TestRemoteEvaluatorFarmDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // nothing listens: every attempt is a transport error
	pool, err := cluster.NewPool([]string{dead.URL}, cluster.PoolOptions{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, ReadmitAfter: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote := cluster.NewRemoteEvaluator(pool, testBench, testInsts, cluster.RemoteOptions{})
	vals, err := remote.Eval(context.Background(), evaltest.Configs(2))
	if err == nil || vals != nil {
		t.Fatalf("dead farm answered %v, %v; want an error and no values", vals, err)
	}
}

// TestRemoteEvaluatorRetriesAfterFailure: a failed fetch is not
// cached, so the next Eval of the same configurations asks the farm
// again and gets the worker's values.
func TestRemoteEvaluatorRetriesAfterFailure(t *testing.T) {
	worker := cluster.NewWorker(cluster.WorkerOptions{}).Handler()
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/eval" && calls.Add(1) == 1 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		worker.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)
	pool, err := cluster.NewPool([]string{flaky.URL}, cluster.PoolOptions{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	remote := cluster.NewRemoteEvaluator(pool, testBench, testInsts, cluster.RemoteOptions{})
	cfgs := evaltest.Configs(3)
	if _, err := remote.Eval(context.Background(), cfgs); err == nil {
		t.Fatal("the 503 reached no caller")
	}
	got := evaltest.All(t, remote, cfgs)
	local, _ := core.NewSimEvaluator(testBench, testInsts)
	for i, want := range evaltest.All(t, local, cfgs) {
		if got[i] != want {
			t.Fatalf("config %d after the retry: remote %v != local %v", i, got[i], want)
		}
	}
	if n := remote.Simulations(); n != len(cfgs) {
		t.Fatalf("remote resolved %d configs, want %d", n, len(cfgs))
	}
}

// TestRemoteEvaluatorWaiterSurvivesCanceledFetch: a call awaiting a
// configuration another call is fetching does not inherit that call's
// cancellation; when the fetch is dropped it fetches the configuration
// itself.
func TestRemoteEvaluatorWaiterSurvivesCanceledFetch(t *testing.T) {
	worker := cluster.NewWorker(cluster.WorkerOptions{}).Handler()
	first := make(chan struct{})
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/eval" && calls.Add(1) == 1 {
			close(first)
			io.Copy(io.Discard, r.Body) // the server notices a gone client only after the body
			<-r.Context().Done()        // hang until the fetching call gives up
			return
		}
		worker.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	pool, err := cluster.NewPool([]string{srv.URL}, cluster.PoolOptions{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	remote := cluster.NewRemoteEvaluator(pool, testBench, testInsts, cluster.RemoteOptions{})
	cfg := evaltest.Configs(1)

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := remote.Eval(ctxA, cfg)
		errA <- err
	}()
	<-first
	hits := obs.NewCounter("cluster.remote_cache_hits")
	h0 := hits.Value()
	type result struct {
		vals []float64
		err  error
	}
	resB := make(chan result, 1)
	go func() {
		vals, err := remote.Eval(context.Background(), cfg)
		resB <- result{vals, err}
	}()
	for hits.Value() == h0 { // B has found A's in-flight entry
		time.Sleep(time.Millisecond)
	}
	cancelA()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fetch returned %v, want context.Canceled", err)
	}
	b := <-resB
	local, _ := core.NewSimEvaluator(testBench, testInsts)
	if b.err != nil || b.vals[0] != evaltest.One(t, local, cfg[0]) {
		t.Fatalf("the waiting call got %v, %v; want the local value and no error", b.vals, b.err)
	}
}

// TestRemoteBuildCancelsFarmCalls: a build's context reaches the farm.
// Over a worker that never answers, a build under a 100 ms deadline
// returns the deadline error within about a second of it, instead of
// waiting out each point's request timeout and failing in the fit.
func TestRemoteBuildCancelsFarmCalls(t *testing.T) {
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(hang.Close)
	t.Cleanup(func() { close(release) })
	pool, err := cluster.NewPool([]string{hang.URL}, cluster.PoolOptions{
		RequestTimeout: 3 * time.Second, MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote := cluster.NewRemoteEvaluator(pool, testBench, testInsts, cluster.RemoteOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	m, err := core.BuildRBFModelCtx(ctx, remote, 4, core.Options{LHSCandidates: 2, Parallel: 1})
	took := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) || m != nil {
		t.Fatalf("build over a hanging farm: model %v, err %v; want no model and context.DeadlineExceeded", m, err)
	}
	if took > 1100*time.Millisecond {
		t.Fatalf("build returned %v after start, want within about 1s of its 100ms deadline", took)
	}
}

// ---- the acceptance test: distributed build, bit-identical, survives
// a worker loss mid-build ----

// killAfter closes a worker after n evaluations, deterministically
// mid-build.
type killAfter struct {
	ev    core.Evaluator
	n     atomic.Int32
	after int32
	kill  func()
}

func (k *killAfter) Eval(ctx context.Context, cfgs []design.Config) ([]float64, error) {
	if k.n.Add(int32(len(cfgs))) == k.after {
		k.kill()
	}
	return k.ev.Eval(ctx, cfgs)
}

func TestRemoteBuildBitIdenticalAndSurvivesWorkerLoss(t *testing.T) {
	opt := predperf.Options{
		LHSCandidates: 16,
		Seed:          3,
		RBF:           rbf.Options{PMinGrid: []int{1, 2}, AlphaGrid: []float64{5, 9}},
	}
	const sample = 24

	// Reference: the plain in-process build.
	localBase, err := core.NewSimEvaluator(testBench, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := predperf.BuildModel(localBase, sample, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Distributed build over two workers, one of which dies after the
	// 8th evaluation. Retries must re-route the in-flight work and the
	// resulting model must be bit-identical to the local one.
	doomed := httptest.NewServer(cluster.NewWorker(cluster.WorkerOptions{}).Handler())
	survivor := newWorkerServer(t, cluster.WorkerOptions{})
	pool, err := cluster.NewPool([]string{doomed.URL, survivor.URL}, cluster.PoolOptions{
		BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote := cluster.NewRemoteEvaluator(pool, testBench, testInsts, cluster.RemoteOptions{})
	killed := make(chan struct{})
	ev := &killAfter{ev: remote, after: 8, kill: func() {
		doomed.CloseClientConnections()
		doomed.Close()
		close(killed)
	}}
	got, err := predperf.BuildModel(ev, sample, opt)
	if err != nil {
		t.Fatalf("distributed build failed after worker loss: %v", err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("the doomed worker was never killed; the test exercised nothing")
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := want.Save(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatalf("distributed model is not bit-identical to the local build:\nlocal:  %.120s\nremote: %.120s",
			wantBuf.String(), gotBuf.String())
	}

	// The dead worker must be evicted from the pool by now.
	var evicted bool
	for _, ws := range pool.Snapshot() {
		if ws.URL == doomed.URL {
			evicted = ws.Evicted
		}
	}
	if !evicted {
		t.Error("killed worker still in rotation")
	}
}
