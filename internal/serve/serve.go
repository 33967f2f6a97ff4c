// Package serve is the HTTP inference layer over fitted CPI models: it
// turns models persisted by core.Model.Save into a long-running service
// so the paper's fast surrogate actually serves predictions instead of
// living and dying inside the process that built it.
//
// The server is stdlib-only (net/http) and exposes a small JSON API:
//
//	POST /v1/predict      single config or batch against a named model
//	POST /v1/search       model-guided design-space search (search.Minimize)
//	GET  /v1/models       list the model registry
//	POST /v1/models/load  hot-load a persisted model into the registry
//	GET  /healthz         liveness + registry size
//	GET  /metricz         internal/obs counters and spans as JSON
//	GET  /tracez          tail-sampled distributed trace store
//
// Production behaviors live here rather than in the CLI: an RWMutex
// model registry with lazy per-model simulator evaluators, a bounded
// LRU prediction cache keyed on (model, quantized config), vectorized
// batch evaluation (one blocked design-matrix pass per batch via
// rbf.Compiled, chunked over the internal/par pool for large batches),
// request-size limits, per-request timeouts, structured JSON errors,
// and graceful shutdown (drain with a deadline). A single prediction
// takes the scalar path straight to the RBF network: one evaluation
// costs well under a microsecond, far less than the HTTP hop around it.
//
// Every incoming configuration is validated and then clamped/quantized
// through the model's design.Space exactly as at training time
// (Decode∘Encode), so the served prediction always describes a machine
// the space can express — and for on-grid configurations it is
// bit-identical to an in-process Model.PredictConfig call.
package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/obs"
)

// Request-path counters and spans (internal/obs). serve.predicts counts
// /v1/predict requests, serve.batch_points every configuration scored
// (a batch of 64 adds 64), and the cache pair says how often the LRU
// absorbed a prediction.
var (
	cPredicts   = obs.NewCounter("serve.predicts")
	cBatchPts   = obs.NewCounter("serve.batch_points")
	cCacheHits  = obs.NewCounter("serve.cache_hits")
	cCacheMiss  = obs.NewCounter("serve.cache_misses")
	cSearches   = obs.NewCounter("serve.searches")
	cModelLoads = obs.NewCounter("serve.model_loads")
	cErrors     = obs.NewCounter("serve.errors")
)

// Options configures a Server. Zero values take production defaults.
type Options struct {
	// MaxBodyBytes bounds the size of a request body (default 1 MiB).
	MaxBodyBytes int64
	// Timeout bounds the handling of one request; requests that exceed
	// it receive a structured 503 (default 30s).
	Timeout time.Duration
	// CacheSize bounds the LRU prediction cache in entries (default
	// 4096; negative disables caching).
	CacheSize int
	// Workers bounds the internal/par fan-out used for batch predict
	// requests (default one per CPU).
	Workers int
	// MaxBatch bounds the number of configurations in one predict
	// request (default 4096).
	MaxBatch int
	// SearchTraceLen is the trace length used when /v1/search verifies
	// its shortlist with the simulator (default 50k instructions).
	SearchTraceLen int
	// ModelDir resolves relative paths in /v1/models/load and is
	// scanned for *.json models by LoadDir.
	ModelDir string
	// AccessLog receives one JSON line per completed request (nil
	// disables access logging). Writes are serialized by the server.
	AccessLog io.Writer
	// Clock injects a time source for windowed metrics, SLO burn rates,
	// alert timestamps, and shadow drift windows (default time.Now).
	// Tests drive a fake clock through it.
	Clock obs.Clock
	// SLOLatency is the latency objective: a request is "good" when it
	// completes within this duration (default 250ms). Align it with a
	// histogram bucket bound for exact accounting.
	SLOLatency time.Duration
	// SLOAvailability is the target good fraction for both SLOs
	// (default 0.999).
	SLOAvailability float64
	// BurnThreshold is the burn rate above which an SLO trips /readyz
	// (default obs.DefBurnThreshold, 14.4).
	BurnThreshold float64
	// ShadowFraction is the fraction of served predictions re-checked on
	// the cycle-level simulator (0 disables shadow monitoring, 1 checks
	// everything). Sampling is a deterministic hash of the (model,
	// quantized config) pair.
	ShadowFraction float64
	// ShadowWorkers bounds the background simulation worker pool
	// (default 1).
	ShadowWorkers int
	// ShadowQueue bounds the pending shadow-sample queue; a full queue
	// drops samples instead of blocking the predict path (default 1024).
	ShadowQueue int
	// ShadowErrPct is the windowed mean percent error above which a
	// model counts as drifting (default 25; negative keeps the error
	// histograms but never trips readiness).
	ShadowErrPct float64
	// ShadowMinSamples is how many windowed shadow samples a model needs
	// before drift can fire (default 10).
	ShadowMinSamples int
	// Retrain enables the drift-triggered retrain controller: models
	// whose shadow drift alert fires for RetrainAfter are rebuilt at
	// escalated sample sizes and hot-swapped in. Requires shadow
	// monitoring (ShadowFraction > 0) to ever trigger.
	Retrain bool
	// RetrainSizes is the escalation ladder of sample sizes; only sizes
	// above the serving model's are built. Empty means automatic: 2×,
	// 3×, 4× the serving model's sample size.
	RetrainSizes []int
	// RetrainTargetPct stops the escalation once the mean test error
	// drops to this percentage (default 5, the paper's "a few percent").
	RetrainTargetPct float64
	// RetrainCooldown is the per-model pause after a retrain finishes —
	// success or failure — before another may start (default 10m).
	RetrainCooldown time.Duration
	// RetrainMaxConcurrent bounds simultaneous retrains across all
	// models (default 1).
	RetrainMaxConcurrent int
	// RetrainAfter is how long a model's drift alert must fire
	// continuously before a retrain starts (default 30s; negative means
	// immediately).
	RetrainAfter time.Duration
	// RetrainPoll is the wall-clock cadence of drift-state polls
	// (default 10s). Tests set it high and drive polls directly.
	RetrainPoll time.Duration
	// RetrainTestPoints sizes the simulator-backed test set that drives
	// the escalation's stopping rule (default 24).
	RetrainTestPoints int
	// RetrainWorkers bounds the internal/par worker budget of one
	// background build, so retraining cannot starve the serving CPUs
	// (default 1).
	RetrainWorkers int
	// SimPool, when non-nil, fans every simulator consumer — search
	// shortlist verification, shadow re-simulation, retrain builds —
	// out to a cluster of sim workers instead of simulating on the
	// serving host. Workers are deterministic, so results are
	// bit-identical to local simulation. cmd/predserve builds the pool
	// from -sim-workers.
	SimPool *cluster.Pool
	// TraceSample is the head-sampling rate for distributed traces: the
	// fraction of edge requests that record a request-scoped trace
	// (default 1.0, trace everything; negative disables tracing). The
	// decision is made once at the edge — an inbound traceparent header
	// carries it downstream instead.
	TraceSample float64
	// TraceSampleMax, when above TraceSample, turns on SLO-burn-adaptive
	// head sampling: while any declared SLO fires, the edge sampling rate
	// ramps (doubling per adapt tick) toward this ceiling, and decays
	// back to TraceSample once the burn clears. 0 (the default) keeps
	// the rate static at TraceSample. Only the number of retained traces
	// changes — response bodies are untouched and the decision at any
	// fixed rate stays deterministic per request ID.
	TraceSampleMax float64
	// TraceAdaptInterval is the adaptive sampling controller's tick
	// cadence (default 10s). Only meaningful with TraceSampleMax set.
	TraceAdaptInterval time.Duration
	// TraceStoreSize bounds each retention class of the /tracez store
	// (errors, kept outliers, reservoir sample) in traces (default 64).
	TraceStoreSize int
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4096
	}
	if o.SearchTraceLen <= 0 {
		o.SearchTraceLen = 50_000
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.SLOLatency <= 0 {
		o.SLOLatency = 250 * time.Millisecond
	}
	if o.SLOAvailability <= 0 || o.SLOAvailability >= 1 {
		o.SLOAvailability = 0.999
	}
	if o.BurnThreshold <= 0 {
		o.BurnThreshold = obs.DefBurnThreshold
	}
	if o.ShadowWorkers <= 0 {
		o.ShadowWorkers = 1
	}
	if o.ShadowQueue <= 0 {
		o.ShadowQueue = 1024
	}
	if o.ShadowErrPct == 0 {
		o.ShadowErrPct = 25
	}
	if o.ShadowMinSamples <= 0 {
		o.ShadowMinSamples = 10
	}
	if o.RetrainTargetPct <= 0 {
		o.RetrainTargetPct = 5
	}
	if o.RetrainCooldown <= 0 {
		o.RetrainCooldown = 10 * time.Minute
	}
	if o.RetrainMaxConcurrent <= 0 {
		o.RetrainMaxConcurrent = 1
	}
	if o.RetrainAfter == 0 {
		o.RetrainAfter = 30 * time.Second
	} else if o.RetrainAfter < 0 {
		o.RetrainAfter = 0
	}
	if o.RetrainPoll <= 0 {
		o.RetrainPoll = 10 * time.Second
	}
	if o.RetrainTestPoints <= 0 {
		o.RetrainTestPoints = 24
	}
	if o.RetrainWorkers <= 0 {
		o.RetrainWorkers = 1
	}
	if o.TraceSample == 0 {
		o.TraceSample = 1
	}
	if o.TraceAdaptInterval <= 0 {
		o.TraceAdaptInterval = 10 * time.Second
	}
	if o.TraceStoreSize <= 0 {
		o.TraceStoreSize = 64
	}
	return o
}

// Server serves predictions from a registry of loaded models.
type Server struct {
	opt    Options
	reg    *Registry
	cache  *lru
	access *accessLog
	http   *http.Server

	// Time-aware observability: the clock every window/SLO/alert runs
	// on, sliding-window views over the request metrics, the declared
	// SLOs, the alert log, and the shadow drift monitor.
	clock    obs.Clock
	start    time.Time
	wLatency *obs.WindowedHistogram
	wTotal   *obs.WindowedCounter
	w5xx     *obs.WindowedCounter
	wRoutes  map[string]*obs.WindowedHistogram
	slos     []*obs.SLO
	alerts   *obs.AlertSet
	shadow   *shadowMonitor
	retrain  *retrainController

	// Distributed tracing: the edge head-sampler (burn-adaptive when
	// Options.TraceSampleMax raises the ceiling) and the tail-retention
	// trace store behind /tracez.
	sampler   *obs.AdaptiveSampler
	traces    *obs.TraceStore
	adaptStop chan struct{}
	adaptDone chan struct{}
}

// New builds a Server with an empty registry. Load models through
// Registry before (or while — the registry is hot-loadable) serving.
// Serving internals that are otherwise invisible — prediction-cache
// entries and capacity, registry size — are exported as callback gauges;
// the obs registry is process-global, so the most recently constructed
// Server owns these series.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:    opt,
		reg:    NewRegistry(opt.ModelDir),
		cache:  newLRU(opt.CacheSize),
		access: newAccessLog(opt.AccessLog),
		clock:  opt.Clock,
	}
	s.sampler = obs.NewAdaptiveSampler(opt.TraceSample, opt.TraceSampleMax, 0)
	s.traces = obs.NewTraceStore(opt.TraceStoreSize)
	obs.NewGaugeFunc("obs.trace_sample_rate", s.sampler.Rate)
	if opt.SimPool != nil {
		s.reg.SetEvalFactory(func(benchmark string, traceLen int) (core.Evaluator, error) {
			return cluster.NewRemoteEvaluator(opt.SimPool, benchmark, traceLen, cluster.RemoteOptions{}), nil
		})
	}
	s.start = s.clock()
	obs.NewGaugeFunc("serve.cache_entries", func() float64 { return float64(s.cache.Len()) })
	obs.NewGaugeFunc("serve.cache_capacity", func() float64 { return float64(s.cache.Cap()) })
	obs.NewGaugeFunc("serve.registry_models", func() float64 { return float64(s.reg.Len()) })

	// Sliding-window views over the request metrics (latest-wins, like
	// the gauges above: the most recent Server owns the clock), plus
	// per-route views for the /statusz latency tables.
	s.wLatency = obs.WindowHistogram(hAllRequests, s.clock)
	s.wTotal = obs.WindowCounter(cRequestsTotal, s.clock)
	s.w5xx = obs.WindowCounter(cResponses5xx, s.clock)
	s.wRoutes = map[string]*obs.WindowedHistogram{}
	for route := range routes {
		s.wRoutes[route] = obs.WindowHistogramIn(hRequests, s.clock, route)
	}
	s.wRoutes["other"] = obs.WindowHistogramIn(hRequests, s.clock, "other")

	// The two declared SLOs, Google SRE multi-window burn style. Both
	// are registered globally so run reports carry their states.
	s.slos = []*obs.SLO{
		obs.RegisterSLO(&obs.SLO{
			Name:        "latency",
			Description: fmt.Sprintf("%.4g%% of requests complete within %s", opt.SLOAvailability*100, opt.SLOLatency),
			Objective:   opt.SLOAvailability,
			Threshold:   opt.BurnThreshold,
			SLI:         obs.LatencySLI(s.wLatency, opt.SLOLatency.Seconds()),
		}),
		obs.RegisterSLO(&obs.SLO{
			Name:        "availability",
			Description: fmt.Sprintf("%.4g%% of responses are non-5xx", opt.SLOAvailability*100),
			Objective:   opt.SLOAvailability,
			Threshold:   opt.BurnThreshold,
			SLI:         obs.AvailabilitySLI(s.w5xx, s.wTotal),
		}),
	}
	s.alerts = obs.NewAlertSet(s.clock)
	s.shadow = newShadowMonitor(opt, s.clock)
	s.retrain = newRetrainController(opt, s.reg, s.shadow, s.clock)
	s.retrain.traces = s.traces
	if opt.Retrain {
		obs.NewGaugeFunc("serve.retrains_inflight", func() float64 { return float64(s.retrain.inflightCount()) })
	}
	s.retrain.start()

	// Burn-adaptive sampling controller: a periodic tick feeds the
	// multi-window SLO state into the sampler's ramp/decay logic. Only
	// started when a ceiling above the base rate makes adaptation
	// possible; tests drive AdaptTick directly instead.
	if opt.TraceSampleMax > 0 && s.sampler.Max() > s.sampler.Base() {
		s.adaptStop = make(chan struct{})
		s.adaptDone = make(chan struct{})
		go s.adaptLoop()
	}

	s.http = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// AdaptTick runs one adaptive-sampling controller step: the sampling
// rate ramps while any declared SLO fires and decays (with hysteresis)
// once every burn has cleared. Returns the rate now in effect.
func (s *Server) AdaptTick() float64 {
	burning := false
	for _, slo := range s.slos {
		if slo.State().Firing {
			burning = true
			break
		}
	}
	return s.sampler.Tick(burning)
}

// adaptLoop ticks the adaptive sampling controller until Shutdown.
func (s *Server) adaptLoop() {
	defer close(s.adaptDone)
	t := time.NewTicker(s.opt.TraceAdaptInterval)
	defer t.Stop()
	for {
		select {
		case <-s.adaptStop:
			return
		case <-t.C:
			s.AdaptTick()
		}
	}
}

// Registry exposes the model registry for loading and inspection.
func (s *Server) Registry() *Registry { return s.reg }

// Traces exposes the /tracez trace store (tests and embedding callers).
func (s *Server) Traces() *obs.TraceStore { return s.traces }

// Handler returns the full API handler: the route mux wrapped with the
// per-request timeout, wrapped in turn with the observability middleware
// (request-ID assignment + request-scoped trace, per-route latency
// histograms and response counters, in-flight gauge, access log) — so
// even timed-out requests are logged and measured with their real 503.
// Request-size limits are applied per route (the body readers are capped
// with http.MaxBytesReader).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/alertz", s.handleAlertz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/metricz", s.handleMetricz)
	mux.Handle("/tracez", s.traces.Handler())
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/models/load", s.handleModelsLoad)
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/v1/search", s.handleSearch)
	return s.withObs(s.withTimeout(mux))
}

// withTimeout wraps h with the per-request deadline. http.TimeoutHandler
// writes its error body without a Content-Type, which Go's sniffer would
// label text/plain, so the JSON Content-Type is pre-set on the real
// response writer; handlers on the non-timeout path set it themselves.
func (s *Server) withTimeout(h http.Handler) http.Handler {
	th := http.TimeoutHandler(h, s.opt.Timeout,
		`{"error":{"code":"timeout","message":"request exceeded the server's per-request deadline"}}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		th.ServeHTTP(w, r)
	})
}

// Serve accepts connections on l until Shutdown. A server that was shut
// down cleanly returns nil rather than http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains in-flight requests, waiting at most deadline before
// giving up on stragglers, then stops the retrain controller (cancels
// the escalation, waits for in-flight attempts), then the shadow
// workers (which finish their in-flight simulations). New connections
// are refused immediately. Handlers that outlive the drain deadline
// remain safe: offering to the stopped shadow monitor drops the sample
// and counts it.
func (s *Server) Shutdown(deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if s.adaptStop != nil {
		close(s.adaptStop)
		<-s.adaptDone
		s.adaptStop = nil
	}
	s.retrain.stop()
	s.shadow.stop()
	return err
}
