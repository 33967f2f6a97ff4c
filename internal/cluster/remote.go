package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/par"
)

// Client-side farm observability: how often the pool asked a worker for
// work, how often it had to retry or hedge, and the health transitions
// of the worker set. Per-worker request latency feeds both /statusz and
// the hedging policy's local tracker.
var (
	cPoolRequests     = obs.NewCounter("cluster.pool_requests")
	cPoolRetries      = obs.NewCounter("cluster.retries")
	cPoolHedges       = obs.NewCounter("cluster.hedges")
	cPoolHedgeWins    = obs.NewCounter("cluster.hedge_wins")
	cPoolEvictions    = obs.NewCounter("cluster.evictions")
	cPoolReadmissions = obs.NewCounter("cluster.readmissions")
	cPoolFailures     = obs.NewCounter("cluster.eval_failures")
	cRemoteEvals      = obs.NewCounter("cluster.remote_evals")
	cRemoteCacheHits  = obs.NewCounter("cluster.remote_cache_hits")
	hPoolLatency      = obs.NewHistogramVec("cluster.worker_request_seconds", obs.DefLatencyBuckets, "worker")
)

// PoolOptions tunes the client side of the evaluation farm. Zero values
// take production defaults.
type PoolOptions struct {
	// MaxInflight bounds concurrent requests per worker; excess callers
	// block on the worker's slot (default 4).
	MaxInflight int
	// RequestTimeout bounds one attempt against one worker (default 2m;
	// a cold batch of simulations is slow but not unbounded).
	RequestTimeout time.Duration
	// MaxAttempts bounds the attempts for one evaluation across the
	// whole pool before the caller sees the error (default
	// max(4, 2 × workers)).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff; subsequent retries
	// double it up to MaxBackoff, each with full jitter (default 50ms,
	// capped at 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HedgeQuantile launches a duplicate request on a second worker
	// when the first has been in flight longer than this quantile of
	// recently observed latencies (default 0.95; negative disables
	// hedging). The first response wins; the duplicate's simulation is
	// memoized server-side, so waste is bounded.
	HedgeQuantile float64
	// HedgeMin is the floor for the hedge delay, so fast fleets do not
	// hedge on scheduling noise (default 100ms).
	HedgeMin time.Duration
	// EvictAfter is the consecutive-failure count that evicts a worker
	// from rotation (default 3).
	EvictAfter int
	// ReadmitAfter is how long an evicted worker rests before a live
	// request probes it for readmission (default 5s).
	ReadmitAfter time.Duration
	// BatchChunk splits a large evaluation batch into per-worker
	// requests of this size so one batch fans out across the farm
	// (default 64).
	BatchChunk int
	// Client overrides the HTTP client (default: a dedicated client
	// with sane connection pooling).
	Client *http.Client
}

func (o PoolOptions) withDefaults(workers int) PoolOptions {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2 * workers
		if o.MaxAttempts < 4 {
			o.MaxAttempts = 4
		}
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.HedgeQuantile == 0 {
		o.HedgeQuantile = 0.95
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = 100 * time.Millisecond
	}
	if o.EvictAfter <= 0 {
		o.EvictAfter = 3
	}
	if o.ReadmitAfter <= 0 {
		o.ReadmitAfter = 5 * time.Second
	}
	if o.BatchChunk <= 0 {
		o.BatchChunk = 64
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: o.MaxInflight,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return o
}

// permanentError marks a failure retrying cannot fix (the worker
// understood the request and rejected it).
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// workerConn is the pool's view of one worker: its in-flight slots and
// its health state.
type workerConn struct {
	url string
	sem chan struct{}

	mu        sync.Mutex
	fails     int // consecutive failures
	evicted   bool
	evictedAt time.Time

	ok   atomic.Int64 // total successful requests
	errs atomic.Int64 // total failed requests
}

// available reports whether the worker may take a request now: healthy,
// or evicted long enough ago that a readmission probe is due.
func (w *workerConn) available(now time.Time, readmitAfter time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.evicted || now.Sub(w.evictedAt) >= readmitAfter
}

// Pool is a health-gated set of sim workers. It owns worker selection
// (round-robin over available workers), bounded in-flight slots,
// retries with jittered exponential backoff, latency-quantile hedging,
// and eviction/readmission.
type Pool struct {
	opt     PoolOptions
	workers []*workerConn
	rr      atomic.Uint64

	// latMu guards the sliding latency sample feeding the hedge delay.
	latMu   sync.Mutex
	lats    []float64 // seconds; ring buffer
	latNext int
	latFull bool
}

// hedgeSamples is how many recent latencies the hedge-delay quantile is
// computed over, and hedgeWarmup how many must exist before hedging
// arms at all.
const (
	hedgeSamples = 256
	hedgeWarmup  = 16
)

// NewPool builds a pool over the given worker base URLs (scheme
// optional; "host:port" is normalized to "http://host:port").
func NewPool(urls []string, opt PoolOptions) (*Pool, error) {
	if len(urls) == 0 {
		return nil, errors.New("cluster: a worker pool needs at least one worker URL")
	}
	opt = opt.withDefaults(len(urls))
	p := &Pool{opt: opt, lats: make([]float64, hedgeSamples)}
	seen := map[string]bool{}
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, errors.New("cluster: empty worker URL")
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate worker URL %s", u)
		}
		seen[u] = true
		p.workers = append(p.workers, &workerConn{
			url: u,
			sem: make(chan struct{}, opt.MaxInflight),
		})
	}
	return p, nil
}

// Workers lists the pool's worker URLs in configuration order.
func (p *Pool) Workers() []string {
	out := make([]string, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.url
	}
	return out
}

// pick selects the next worker round-robin among available ones,
// skipping exclude (the hedge's primary). When nothing is available it
// falls back to the least-recently-evicted worker: a fully dark farm
// should keep probing rather than deadlock.
func (p *Pool) pick(exclude *workerConn) *workerConn {
	now := time.Now()
	n := len(p.workers)
	start := int(p.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		w := p.workers[(start+i)%n]
		if w == exclude {
			continue
		}
		if w.available(now, p.opt.ReadmitAfter) {
			return w
		}
	}
	var oldest *workerConn
	for _, w := range p.workers {
		if w == exclude {
			continue
		}
		w.mu.Lock()
		at := w.evictedAt
		w.mu.Unlock()
		if oldest == nil || at.Before(oldestEvictedAt(oldest)) {
			oldest = w
		}
	}
	if oldest == nil {
		return exclude // single-worker pool hedging against itself
	}
	return oldest
}

func oldestEvictedAt(w *workerConn) time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.evictedAt
}

// succeed records a successful request: latency lands in the hedge
// tracker and the per-worker histogram, and an evicted worker that
// answered a probe is readmitted.
func (p *Pool) succeed(w *workerConn, d time.Duration) {
	w.ok.Add(1)
	hPoolLatency.With(w.url).Observe(d.Seconds())
	p.latMu.Lock()
	p.lats[p.latNext] = d.Seconds()
	p.latNext = (p.latNext + 1) % len(p.lats)
	if p.latNext == 0 {
		p.latFull = true
	}
	p.latMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails = 0
	if w.evicted {
		w.evicted = false
		cPoolReadmissions.Inc()
	}
}

// fail records a failed request; EvictAfter consecutive failures evict
// the worker, and a failed readmission probe restarts its rest period.
func (p *Pool) fail(w *workerConn) {
	w.errs.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails++
	if w.evicted {
		w.evictedAt = time.Now()
		return
	}
	if w.fails >= p.opt.EvictAfter {
		w.evicted = true
		w.evictedAt = time.Now()
		cPoolEvictions.Inc()
	}
}

// hedgeDelay computes the current hedge trigger: the configured
// quantile of recent request latencies, floored at HedgeMin. Returns
// false while hedging is disabled or the sample is too small to trust.
func (p *Pool) hedgeDelay() (time.Duration, bool) {
	if p.opt.HedgeQuantile < 0 || len(p.workers) < 2 {
		return 0, false
	}
	p.latMu.Lock()
	n := p.latNext
	if p.latFull {
		n = len(p.lats)
	}
	if n < hedgeWarmup {
		p.latMu.Unlock()
		return 0, false
	}
	sample := make([]float64, n)
	copy(sample, p.lats[:n])
	p.latMu.Unlock()
	sort.Float64s(sample)
	idx := int(p.opt.HedgeQuantile * float64(n))
	if idx >= n {
		idx = n - 1
	}
	d := time.Duration(sample[idx] * float64(time.Second))
	if d < p.opt.HedgeMin {
		d = p.opt.HedgeMin
	}
	return d, true
}

// attemptResult carries one worker attempt's outcome back to the
// hedging selector.
type attemptResult struct {
	res    *EvalResponse
	err    error
	worker *workerConn
	hedge  bool
}

// hedgeLink shares the two racing attempts' span IDs so each attempt
// span can carry a "link_span" annotation naming its sibling: a merged
// trace then shows the duplicated work as two connected attempts
// instead of orphan siblings. Slots are atomics because the attempts
// run concurrently; a slot still zero when an attempt ends (the
// primary finishing before the hedge launched) simply yields no link
// on that side.
type hedgeLink struct {
	primary atomic.Int64
	hedge   atomic.Int64
}

// sibling returns the other attempt's span ID, or 0 if it has not
// started (or tracing is off).
func (l *hedgeLink) sibling(hedge bool) int64 {
	if l == nil {
		return 0
	}
	if hedge {
		return l.primary.Load()
	}
	return l.hedge.Load()
}

// store records this attempt's span ID in its slot.
func (l *hedgeLink) store(hedge bool, id int64) {
	if l == nil || id == 0 {
		return
	}
	if hedge {
		l.hedge.Store(id)
	} else {
		l.primary.Store(id)
	}
}

// attempt runs one request against one worker: acquire an in-flight
// slot, POST the body with the per-attempt deadline, parse the answer.
// Each attempt is a "cluster.pool_attempt" span annotated with its
// worker, whether it was a hedge, and the outcome — so a hedged eval's
// duplicated work is attributable in the trace rather than appearing as
// a mystery double eval. The request identity and sampling bit ride the
// traceparent header; a sampled worker's span forest comes back in the
// response body and is grafted under the attempt span.
func (p *Pool) attempt(ctx context.Context, w *workerConn, body []byte, hedge bool, link *hedgeLink, out chan<- attemptResult) {
	tr := obs.TraceFrom(ctx)
	spanCtx, endSpan := obs.StartSpanArgs(ctx, "cluster.pool_attempt",
		"worker", w.url, "hedge", strconv.FormatBool(hedge))
	link.store(hedge, obs.SpanIDFrom(spanCtx))
	send := func(res *EvalResponse, err error, outcome string, extra ...string) {
		args := append([]string{"outcome", outcome}, extra...)
		if sib := link.sibling(hedge); sib != 0 {
			args = append(args, "link_span", strconv.FormatInt(sib, 10))
		}
		endSpan(args...)
		out <- attemptResult{res: res, err: err, worker: w, hedge: hedge}
	}
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-ctx.Done():
		send(nil, ctx.Err(), "canceled")
		return
	}
	attemptCtx, cancel := context.WithTimeout(ctx, p.opt.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, w.url+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		send(nil, err, "bad_request")
		return
	}
	req.Header.Set("Content-Type", "application/json")
	id := obs.RequestIDFrom(ctx)
	if tr != nil {
		id = tr.ID()
	}
	if id != "" {
		req.Header.Set(RequestIDHeader, id)
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(obs.SpanContext{
			TraceID: id, ParentID: obs.SpanIDFrom(spanCtx), Sampled: tr != nil,
		}))
	}
	t0 := time.Now()
	resp, err := p.opt.Client.Do(req)
	if err != nil && ctx.Err() != nil {
		// The caller gave up; that says nothing about the worker's health.
		send(nil, ctx.Err(), "canceled")
		return
	}
	if err != nil {
		p.fail(w)
		send(nil, fmt.Errorf("cluster: worker %s: %w", w.url, err), "transport_error")
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		p.fail(w)
		send(nil, fmt.Errorf("cluster: worker %s: reading response: %w", w.url, err), "read_error")
		return
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("cluster: worker %s answered %d: %s", w.url, resp.StatusCode, truncate(raw, 200))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			// The request itself is wrong; no worker will accept it.
			// 4xx does not indict the worker's health.
			send(nil, permanentError{err}, "rejected")
			return
		}
		p.fail(w)
		send(nil, err, "server_error")
		return
	}
	var er EvalResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		p.fail(w)
		send(nil, fmt.Errorf("cluster: worker %s: bad response body: %w", w.url, err), "bad_body")
		return
	}
	rtt := time.Since(t0)
	p.succeed(w, rtt)
	if tr != nil && len(er.Spans) > 0 {
		// The clock_offset_ms arg doubles as the graft marker federated
		// trace search keys on: a span naming a worker plus this arg
		// means that worker's forest already rides in this trace.
		off := obs.ClockOffset(t0, rtt, er.Spans)
		tr.Graft(obs.SpanIDFrom(spanCtx), er.Spans, off)
		send(&er, nil, "ok",
			"clock_offset_ms", strconv.FormatFloat(float64(off)/float64(time.Millisecond), 'f', 3, 64))
		return
	}
	send(&er, nil, "ok")
}

func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}

// tryOnce runs one logical attempt with hedging: the primary request
// goes to the next available worker, and if it is still in flight past
// the hedge delay a duplicate goes to a second worker; the first
// response (or first permanent error) wins.
func (p *Pool) tryOnce(ctx context.Context, body []byte) (*EvalResponse, error) {
	primary := p.pick(nil)
	results := make(chan attemptResult, 2)
	link := &hedgeLink{}
	go p.attempt(ctx, primary, body, false, link, results)
	launched := 1

	var hedgeC <-chan time.Time
	if d, ok := p.hedgeDelay(); ok {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for received := 0; received < launched; {
		select {
		case r := <-results:
			received++
			if r.err == nil {
				if r.hedge {
					cPoolHedgeWins.Inc()
				}
				if launched > 1 {
					// A zero-duration marker naming the race's winner; the
					// per-attempt spans carry the worker and hedge flags.
					winner := "primary"
					if r.hedge {
						winner = "hedge"
					}
					_, endRace := obs.StartSpanArgs(ctx, "cluster.hedge_race",
						"winner", winner, "worker", r.worker.url)
					endRace()
				}
				return r.res, nil
			}
			var perm permanentError
			if errors.As(r.err, &perm) {
				return nil, r.err
			}
			lastErr = r.err
		case <-hedgeC:
			hedgeC = nil
			if second := p.pick(primary); second != nil && second != primary {
				cPoolHedges.Inc()
				go p.attempt(ctx, second, body, true, link, results)
				launched++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// EvalChunk evaluates one chunk of configurations on the farm: retries
// with jittered exponential backoff across workers on transient
// failures and gives up immediately on permanent (4xx) rejections.
func (p *Pool) EvalChunk(ctx context.Context, req EvalRequest) ([]float64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cPoolRequests.Inc()
	var lastErr error
	backoff := p.opt.BaseBackoff
	for a := 0; a < p.opt.MaxAttempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if a > 0 {
			cPoolRetries.Inc()
			// Full jitter: a uniformly random fraction of the doubled
			// backoff decorrelates retry storms across concurrent evals.
			d := time.Duration(rand.Int63n(int64(backoff) + 1))
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if backoff *= 2; backoff > p.opt.MaxBackoff {
				backoff = p.opt.MaxBackoff
			}
		}
		res, err := p.tryOnce(ctx, body)
		if err == nil {
			if len(res.Values) != len(req.Configs) {
				lastErr = fmt.Errorf("cluster: worker answered %d values for %d configs", len(res.Values), len(req.Configs))
				continue
			}
			return res.Values, nil
		}
		var perm permanentError
		if errors.As(err, &perm) {
			cPoolFailures.Inc()
			return nil, err
		}
		lastErr = err
	}
	cPoolFailures.Inc()
	return nil, fmt.Errorf("cluster: evaluation failed after %d attempts: %w", p.opt.MaxAttempts, lastErr)
}

// WorkerStatus is one row of the pool's topology snapshot.
type WorkerStatus struct {
	URL      string `json:"url"`
	Evicted  bool   `json:"evicted"`
	Fails    int    `json:"consecutive_fails"`
	Inflight int    `json:"inflight"`
	OK       int64  `json:"requests_ok"`
	Errors   int64  `json:"requests_failed"`
}

// Snapshot reports every worker's health for /statusz and /healthz
// surfaces.
func (p *Pool) Snapshot() []WorkerStatus {
	out := make([]WorkerStatus, len(p.workers))
	for i, w := range p.workers {
		w.mu.Lock()
		out[i] = WorkerStatus{
			URL:      w.url,
			Evicted:  w.evicted,
			Fails:    w.fails,
			Inflight: len(w.sem),
			OK:       w.ok.Load(),
			Errors:   w.errs.Load(),
		}
		w.mu.Unlock()
	}
	return out
}

// ---- RemoteEvaluator ----

// remoteEntry is the single-flight slot for one configuration, mirroring
// core's simEntry; ok distinguishes a published value from a failed
// fetch (failures are forgotten so a later Eval retries).
type remoteEntry struct {
	done chan struct{}
	val  float64
	ok   bool
}

// RemoteOptions configures a RemoteEvaluator view.
type RemoteOptions struct {
	// Metric selects the response, as on core.SimEvaluator.
	Metric core.Metric
}

// RemoteEvaluator implements core.Evaluator over a worker pool: the
// scale-out seam the ROADMAP names. Results are memoized with the same
// single-flight discipline as core.SimEvaluator, and since workers run
// the identical deterministic simulator, a model built through a
// RemoteEvaluator is bit-identical to one built in-process.
type RemoteEvaluator struct {
	Benchmark string
	TraceLen  int

	pool   *Pool
	metric core.Metric

	mu    sync.Mutex
	cache map[string]*remoteEntry
	evals int // distinct configurations fetched (cache misses completed)
}

// NewRemoteEvaluator builds a farm-backed evaluator for one benchmark
// and trace length.
func NewRemoteEvaluator(pool *Pool, benchmark string, traceLen int, opt RemoteOptions) *RemoteEvaluator {
	return &RemoteEvaluator{
		Benchmark: benchmark,
		TraceLen:  traceLen,
		pool:      pool,
		metric:    opt.Metric,
		cache:     map[string]*remoteEntry{},
	}
}

var _ core.Evaluator = (*RemoteEvaluator)(nil)

// Eval returns the metric for every configuration, in input order.
// Cached values are answered directly, and a configuration another call
// is already fetching is awaited rather than fetched twice (single
// flight). The call's own misses go to the farm in BatchChunk-sized
// requests, concurrently. ctx bounds every request and wait, and carries
// the caller's trace to the workers. A configuration whose fetch by
// another call failed is fetched again by this one.
func (e *RemoteEvaluator) Eval(ctx context.Context, cfgs []design.Config) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ents := make([]*remoteEntry, len(cfgs))
	var own []int
	e.mu.Lock()
	for i, cfg := range cfgs {
		if ents[i] = e.cache[cfg.Key()]; ents[i] != nil {
			cRemoteCacheHits.Inc()
			continue
		}
		ents[i] = &remoteEntry{done: make(chan struct{})}
		e.cache[cfg.Key()] = ents[i]
		own = append(own, i)
	}
	e.mu.Unlock()

	cRemoteEvals.Add(int64(len(own)))
	chunk := e.pool.opt.BatchChunk
	errs := make([]error, (len(own)+chunk-1)/chunk)
	par.For(len(errs), len(errs), func(c int) {
		errs[c] = e.fetch(ctx, cfgs, ents, own[c*chunk:min((c+1)*chunk, len(own))])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := make([]float64, len(cfgs))
	for i, ent := range ents {
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if !ent.ok {
			// Another call's fetch failed and dropped the entry; start
			// over, so this call fetches it (the rest are cached now).
			return e.Eval(ctx, cfgs)
		}
		out[i] = ent.val
	}
	return out, nil
}

// fetch asks the farm for cfgs[i], i in idx, in one request and
// publishes the answers to their entries. On failure it drops the
// entries, so a later call retries them, and returns the error.
func (e *RemoteEvaluator) fetch(ctx context.Context, cfgs []design.Config, ents []*remoteEntry, idx []int) error {
	req := EvalRequest{
		Benchmark: e.Benchmark,
		TraceLen:  e.TraceLen,
		Metric:    strings.ToLower(e.metric.String()),
		Configs:   make([]WireConfig, len(idx)),
	}
	for a, i := range idx {
		req.Configs[a] = FromConfig(cfgs[i])
	}
	vals, err := e.pool.EvalChunk(ctx, req)
	e.mu.Lock()
	defer e.mu.Unlock()
	for a, i := range idx {
		if err == nil {
			ents[i].val, ents[i].ok = vals[a], true
			e.evals++
		} else {
			delete(e.cache, cfgs[i].Key())
		}
		close(ents[i].done)
	}
	return err
}

// Simulations reports how many distinct configurations were resolved
// through the farm — the remote analogue of
// core.SimEvaluator.Simulations.
func (e *RemoteEvaluator) Simulations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evals
}
