package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
)

// Request mix. Singles draw Zipf-skewed from a pool four times
// predserve's default 4096-entry LRU, so some hit the cache and some
// miss; batches carry fresh configurations from the whole Table 1 space.
const (
	poolSize    = 16384
	zipfS       = 1.1
	batchFrac   = 0.1
	batchSize   = 64
	maxConns    = 2 // connections (and sender goroutines), and never more than nproc
	clientLimit = 10 * time.Second
)

// wireConfig is predserve's JSON shape of a configuration.
type wireConfig struct {
	Depth  int `json:"depth"`
	ROB    int `json:"rob"`
	IQ     int `json:"iq"`
	LSQ    int `json:"lsq"`
	L2KB   int `json:"l2kb"`
	L2Lat  int `json:"l2lat"`
	IL1KB  int `json:"il1kb"`
	DL1KB  int `json:"dl1kb"`
	DL1Lat int `json:"dl1lat"`
}

func toWire(c design.Config) wireConfig {
	return wireConfig{c.PipeDepth, c.ROBSize, c.IQSize, c.LSQSize, c.L2SizeKB, c.L2Lat, c.IL1SizeKB, c.DL1SizeKB, c.DL1Lat}
}

// request is one pre-encoded /v1/predict body with the values
// core.LoadModel + PredictConfig(s) give for it.
type request struct {
	body  []byte
	want  []float64
	batch bool
}

// outcome is one request as the generator saw it.
type outcome struct {
	batch           bool
	ok              bool
	due, sent, done time.Time
}

// latencyMS is the request's latency from its due time; a failed
// request counts as taking at least the client's time limit.
func (o outcome) latencyMS() float64 {
	lat := o.done.Sub(o.due).Seconds() * 1e3
	if !o.ok {
		lat = math.Max(lat, clientLimit.Seconds()*1e3)
	}
	return lat
}

// stream draws requests from the seed: singles Zipf-skewed over the
// shared pool, batches of fresh configurations. Every configuration is
// a fixed point of the model's quantization, so predserve scores exactly
// the configuration sent.
type stream struct {
	next func() request
}

func (s *stream) take(n int) []request {
	rqs := make([]request, n)
	for i := range rqs {
		rqs[i] = s.next()
	}
	return rqs
}

// makeStreams returns the open-loop and the closed-loop request streams.
// Each has its own generator, so each is the same sequence for a seed
// however much of the other a run uses.
func makeStreams(m *core.Model, seed int64) (open, closed *stream) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	draw := func(rng *rand.Rand) design.Config {
		for {
			pt := make(design.Point, m.Space.N())
			for i := range pt {
				pt[i] = rng.Float64()
			}
			c := m.Space.Decode(pt, m.SampleSize)
			if m.Space.Decode(m.Space.Encode(c), m.SampleSize) == c {
				return c
			}
		}
	}
	pool := make([]design.Config, 0, poolSize)
	seen := map[string]bool{}
	for len(pool) < poolSize {
		c := draw(rng)
		if !seen[c.Key()] {
			seen[c.Key()] = true
			pool = append(pool, c)
		}
	}
	poolWant := make([]float64, poolSize)
	for i, c := range pool {
		poolWant[i] = m.PredictConfig(c)
	}
	newStream := func(salt int64) *stream {
		rng := rand.New(rand.NewSource(seed ^ salt))
		zipf := rand.NewZipf(rng, zipfS, 1, poolSize-1)
		return &stream{next: func() request {
			if rng.Float64() >= batchFrac {
				i := zipf.Uint64()
				c := toWire(pool[i])
				body, _ := json.Marshal(map[string]any{"model": m.Name, "config": c})
				return request{body: body, want: poolWant[i : i+1]}
			}
			cfgs := make([]design.Config, batchSize)
			wc := make([]wireConfig, batchSize)
			for i := range cfgs {
				cfgs[i] = draw(rng)
				wc[i] = toWire(cfgs[i])
			}
			body, _ := json.Marshal(map[string]any{"model": m.Name, "configs": wc})
			return request{body: body, want: m.PredictConfigs(cfgs), batch: true}
		}}
	}
	return newStream(0x0be1), newStream(0xc105)
}

// client sends requests over at most `conns` connections and checks
// every answer bit for bit.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string, conns int) *client {
	return &client{url: url, hc: &http.Client{
		Timeout: clientLimit,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

// do sends one request; it returns false on a transport error, a
// non-200 answer or a value that differs from the expected one.
func (c *client) do(rq request) (ok bool, mismatch string) {
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return false, ""
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, ""
	}
	var pr struct {
		Predictions []struct {
			Value   float64 `json:"value"`
			Clamped bool    `json:"clamped"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(body, &pr); err != nil || len(pr.Predictions) != len(rq.want) {
		return false, fmt.Sprintf("malformed answer %.200q", body)
	}
	for i, p := range pr.Predictions {
		if p.Clamped || math.Float64bits(p.Value) != math.Float64bits(rq.want[i]) {
			return false, fmt.Sprintf("value %d: got %v (clamped %v), want %v", i, p.Value, p.Clamped, rq.want[i])
		}
	}
	return true, ""
}

// serveStats is what one serve phase measured.
type serveStats struct {
	setup        []float64 // s, predserve launch until /readyz answered 200
	rssMiB       float64
	open, closed []outcome
	closedWall   float64
	conns        int
	report       *obs.Report // predserve's /metricz after the load (traced runs)
}

// serving is predserve running the gate's model under the generator.
type serving struct {
	r            *run
	srv          *server
	cl           *client
	open, closed *stream
	st           *serveStats
	mismatches   atomic.Int64
}

// startServing starts predserve on the model file (launching it
// `starts` times to measure set-up, keeping the last) and checks two
// answers before any timing. The caller must call finish or stop.
func (r *run) startServing(modelPath string, starts int) (*serving, error) {
	f, err := os.Open(modelPath)
	if err != nil {
		return nil, err
	}
	m, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	s := &serving{r: r, st: &serveStats{conns: min(maxConns, runtime.NumCPU())}}
	s.open, s.closed = makeStreams(m, r.seed)
	for i := 0; i < starts; i++ {
		s.stop()
		s.srv, err = startServer(filepath.Join(r.bin, "predserve"),
			filepath.Join(r.work, "predserve.log"), "/readyz",
			"-addr", "127.0.0.1:0", "-model", modelPath)
		if err != nil {
			return nil, err
		}
		s.st.setup = append(s.st.setup, s.srv.ready.Seconds())
	}
	s.cl = newClient(s.srv.url("/v1/predict"), s.st.conns)
	for _, rq := range []request{s.open.next(), s.closed.next()} {
		ok, bad := s.cl.do(rq)
		if bad == "" {
			bad = "transport error or non-200 answer"
		}
		r.check(ok, "serve gate: %s", bad)
	}
	return s, nil
}

// stop stops predserve, if it runs, and returns its peak RSS.
func (s *serving) stop() (rssMiB float64) {
	if s.srv != nil {
		rssMiB, _ = s.srv.stop()
		s.srv = nil
	}
	return rssMiB
}

// openLoop sends the next dur seconds of the open-loop stream: request
// i is due at t0 + i/rate whatever happened to the ones before it, and
// at most `conns` are in flight.
func (s *serving) openLoop(dur float64) {
	rqs := s.open.take(int(dur * predictRate))
	outs := make([]outcome, len(rqs))
	var next atomic.Int64
	period := time.Second / predictRate
	t0 := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < s.st.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(rqs) {
					return
				}
				due := t0.Add(time.Duration(i) * period)
				time.Sleep(time.Until(due))
				o := outcome{batch: rqs[i].batch, due: due, sent: time.Now()}
				var bad string
				o.ok, bad = s.cl.do(rqs[i])
				o.done = time.Now()
				if bad != "" && s.mismatches.Add(1) == 1 {
					fmt.Printf("CHECK FAILED: open loop: %s\n", bad)
				}
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	s.st.open = append(s.st.open, outs...)
}

// finish runs the closed loop for dur seconds, reads predserve's
// counters on a traced run and stops it.
func (s *serving) finish(dur float64) (*serveStats, error) {
	defer s.stop()
	st := s.st
	// The closed-loop stream holds more requests than the loop has
	// completed on the reference host (about 1250/s); it wraps if not.
	rqs := s.closed.take(int(dur*2000) + 100)
	var next atomic.Int64
	var closedMu sync.Mutex
	var wg sync.WaitGroup
	cstart := time.Now()
	deadline := cstart.Add(time.Duration(dur * float64(time.Second)))
	for w := 0; w < st.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(rqs)
				o := outcome{batch: rqs[i].batch, sent: time.Now()}
				o.due = o.sent
				var bad string
				o.ok, bad = s.cl.do(rqs[i])
				o.done = time.Now()
				if bad != "" && s.mismatches.Add(1) == 1 {
					fmt.Printf("CHECK FAILED: closed loop: %s\n", bad)
				}
				mine = append(mine, o)
			}
			closedMu.Lock()
			st.closed = append(st.closed, mine...)
			closedMu.Unlock()
		}()
	}
	wg.Wait()
	st.closedWall = time.Since(cstart).Seconds()
	if n := next.Load(); int(n) > len(rqs) {
		fmt.Printf("note: closed loop reused %d requests from its stream\n", int(n)-len(rqs))
	}
	if s.mismatches.Load() > 0 {
		s.r.correct = false
	}
	if s.r.traced {
		st.report = new(obs.Report)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := getJSON(ctx, s.srv.url("/metricz?format=json"), st.report); err != nil {
			return nil, err
		}
	}
	st.rssMiB = s.stop()
	return st, nil
}

// windowN is the open-loop requests per latency window: half a second
// of the schedule, one slice on build and farm.
const windowN = int(openSlice * predictRate)

// windowP50s is the single-request median latency of each run of
// windowN consecutive open-loop requests. single_p50_ms is their median,
// so a burst of host noise that covers less than half of the windows
// does not move it.
func windowP50s(open []outcome) []float64 {
	var p50s []float64
	for lo := 0; lo < len(open); lo += windowN {
		var single []float64
		for _, o := range open[lo:min(lo+windowN, len(open))] {
			if !o.batch {
				single = append(single, o.latencyMS())
			}
		}
		if len(single) > 0 {
			p50s = append(p50s, median(single))
		}
	}
	return p50s
}

// phaseCounts prints and tallies sent/succeeded/failed per phase.
func (r *run) phaseCounts(name string, outs []outcome) (failed int) {
	for _, o := range outs {
		if !o.ok {
			failed++
		}
	}
	r.attempted += len(outs)
	r.failed += failed
	fmt.Printf("generator %s: sent %d, succeeded %d, failed %d\n", name, len(outs), len(outs)-failed, failed)
	return failed
}

// serveMetrics turns a serve phase into end-to-end (and, when traced,
// per-layer) metrics.
func (r *run) serveMetrics(st *serveStats) {
	r.phaseCounts("open", st.open)
	closedFailed := r.phaseCounts("closed", st.closed)
	var single, batch, late, svc []float64
	for _, o := range st.open {
		if o.batch {
			batch = append(batch, o.latencyMS())
		} else {
			single = append(single, o.latencyMS())
		}
		late = append(late, o.sent.Sub(o.due).Seconds()*1e3)
	}
	singles := 0
	for _, o := range append(st.open[:len(st.open):len(st.open)], st.closed...) {
		svc = append(svc, o.done.Sub(o.sent).Seconds()*1e3)
		if !o.batch {
			singles++
		}
	}
	qs := []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	var sq, bq []float64
	for _, q := range qs {
		sq = append(sq, quantile(single, q))
		bq = append(bq, quantile(batch, q))
	}
	fmt.Printf("open loop quantiles %v: %d singles %s ms; %d batches %s ms; late p99 %.3f ms\n",
		qs, len(single), fmtList(sq), len(batch), fmtList(bq), quantile(late, 0.99))
	p50s := windowP50s(st.open)
	fmt.Printf("open loop single p50 over %d windows of %d requests: median %.3f, min %.3f, max %.3f ms\n",
		len(p50s), windowN, median(p50s), quantile(p50s, 0), quantile(p50s, 1))
	closedOK := len(st.closed) - closedFailed
	fmt.Printf("closed loop: %d ok in %.2fs over %d connections (%.1f/s)\n", closedOK, st.closedWall, st.conns, float64(closedOK)/st.closedWall)
	if !r.traced {
		r.set("single_p50_ms", median(p50s), "ms")
		return
	}
	rep := st.report
	var hCount int64
	var hSum float64
	for name, h := range rep.Histograms {
		if strings.HasPrefix(name, "serve.http_request_seconds") && strings.Contains(name, "/v1/predict") {
			hCount += h.Count
			hSum += h.Sum
		}
	}
	handler := 1e3 * hSum / math.Max(float64(hCount), 1)
	r.set("serve.handler_mean_ms", handler, "ms")
	r.set("serve.transport_mean_ms", mean(svc)-handler, "ms")
	cb := rep.Histograms["serve.coalesce_batch_size"]
	r.set("serve.coalesce_mean_batch", cb.Sum/math.Max(float64(cb.Count), 1), "configs")
	// Batch configurations are fresh draws from the whole space, so the
	// LRU's hits are the singles' (the serve gate sent one more single).
	r.set("serve.cache_hit_frac", float64(rep.Counters["serve.cache_hits"])/float64(singles+1), "ratio")
	r.set("gen.late_p99_ms", quantile(late, 0.99), "ms")
	// The host's noise moves these too much from run to run to hold an
	// end-to-end bound (see NOTES.md).
	r.set("gen.sat_rps", float64(closedOK)/st.closedWall, "1/s")
	r.set("gen.batch_p50_ms", quantile(batch, 0.5), "ms")
	r.set("gen.single_p90_ms", quantile(single, 0.9), "ms")
	r.set("gen.single_p99_ms", quantile(single, 0.99), "ms")
	r.set("gen.batch_p90_ms", quantile(batch, 0.9), "ms")
	r.set("gen.batch_p99_ms", quantile(batch, 0.99), "ms")
}
