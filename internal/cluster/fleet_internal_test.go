package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"predperf/internal/obs"
)

// argVal reads one key from a span's flat k,v argument list.
func argVal(args []string, key string) (string, bool) {
	for i := 0; i+1 < len(args); i += 2 {
		if args[i] == key {
			return args[i+1], true
		}
	}
	return "", false
}

// TestFleetPlaneBurnAdaptsSampling drives the whole control loop
// end-to-end on a fake clock: scrape → merge → windowed burn → sampler
// ramp, then burn dilution → hysteresis → decay back to base.
func TestFleetPlaneBurnAdaptsSampling(t *testing.T) {
	var rep atomic.Pointer[obs.Report]
	set := func(total, bad int64) {
		rep.Store(&obs.Report{Format: 3, Counters: map[string]int64{
			"serve.requests_total": total,
			"serve.responses_5xx":  bad,
		}})
	}
	set(1000, 0)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep.Load())
	}))
	defer srv.Close()

	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	sampler := obs.NewAdaptiveSampler(0.01, 1, 2)
	p := newFleetPlane([]string{srv.URL}, nil, srv.Client(), time.Second, sampler, clock)

	// Quiet baseline, one scrape per minute (the cadence a live loop
	// keeps, which is what keeps the ring's boundary stamps fresh).
	for i := 0; i < 5; i++ {
		p.scrapeOnce(context.Background())
		now = now.Add(time.Minute)
	}
	if got := sampler.Rate(); got != 0.01 {
		t.Fatalf("rate moved without burn: %v", got)
	}

	// Burst: 400 new requests, all 5xx. Bad fraction ≈ 1 over both
	// windows, burn ≈ 1000 against the 0.999 objective — firing.
	set(1400, 400)
	p.scrapeOnce(context.Background())
	firing := false
	for _, st := range p.states {
		if st.Name == "fleet-availability" && st.Firing {
			firing = true
		}
	}
	if !firing {
		t.Fatalf("availability SLO not firing after an all-5xx burst: %+v", p.states)
	}
	if got := sampler.Rate(); got != 0.02 {
		t.Fatalf("first burning tick: rate %v want 0.02", got)
	}
	now = now.Add(time.Minute)
	p.scrapeOnce(context.Background()) // burst still inside both windows
	if got := sampler.Rate(); got != 0.04 {
		t.Fatalf("second burning tick: rate %v want 0.04", got)
	}

	// Recovery: a flood of good traffic dilutes the windowed bad
	// fraction far below the paging threshold; after the hysteresis
	// period the rate halves per tick back to base.
	set(2_000_000, 400)
	for i := 0; i < 12 && sampler.Rate() != 0.01; i++ {
		now = now.Add(time.Minute)
		p.scrapeOnce(context.Background())
	}
	if got := sampler.Rate(); got != 0.01 {
		t.Fatalf("rate did not decay to base after burn cleared: %v", got)
	}
}

// TestFleetScrapeCarryoverKeepsMergeMonotone: a target that goes dark
// keeps contributing its last-known report, so the merged cumulative
// counters never shrink (which would zero the windowed views for every
// other role).
func TestFleetScrapeCarryoverKeepsMergeMonotone(t *testing.T) {
	var dark atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dark.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&obs.Report{Format: 3,
			Counters: map[string]int64{"fleettest.mono": 700}})
	}))
	defer srv.Close()

	p := newFleetPlane([]string{srv.URL}, nil, srv.Client(), time.Second, nil, nil)
	p.scrapeOnce(context.Background())
	dark.Store(true)
	var merged *obs.Report
	for i := 0; i < fleetFailAfter; i++ {
		merged = p.scrapeOnce(context.Background())
	}
	if got := merged.Counters["fleettest.mono"]; got != 700 {
		t.Fatalf("dark target's last-known counters dropped from the merge: %d", got)
	}
	views := p.targetViews()
	if len(views) != 1 || views[0].Healthy {
		t.Fatalf("target still healthy after %d consecutive failures: %+v", fleetFailAfter, views)
	}
}

// TestHedgeSpanLinks: when a request hedges, both attempt spans carry a
// link_span annotation naming the sibling attempt, so a merged trace
// shows the duplicated work connected.
func TestHedgeSpanLinks(t *testing.T) {
	var slow atomic.Bool
	slowSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() {
			time.Sleep(150 * time.Millisecond)
		}
		evalOK(w, r)
	}))
	defer slowSrv.Close()
	fastSrv := httptest.NewServer(http.HandlerFunc(evalOK))
	defer fastSrv.Close()

	p, err := NewPool([]string{slowSrv.URL, fastSrv.URL}, PoolOptions{
		HedgeQuantile: 0.5,
		HedgeMin:      5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := EvalRequest{Benchmark: "x", TraceLen: 1, Configs: []WireConfig{{1, 1, 1, 1, 1, 1, 1, 1, 1}}}
	for i := 0; i < hedgeWarmup+2; i++ {
		if _, err := p.EvalChunk(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	slow.Store(true)

	tr := obs.NewTrace("hedge-link-test")
	ctx := obs.WithTrace(context.Background(), tr)
	for i := 0; i < 4; i++ {
		if _, err := p.EvalChunk(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	// The losing attempt's span ends asynchronously (when its context
	// is cancelled or its sleep finishes); give it a moment to land.
	deadline := time.Now().Add(2 * time.Second)
	for {
		byID := map[int64][]string{}
		var hedges []obs.SpanInfo
		for _, s := range tr.Spans() {
			if s.Name != "cluster.pool_attempt" {
				continue
			}
			byID[s.ID] = s.Args
			if h, _ := argVal(s.Args, "hedge"); h == "true" {
				hedges = append(hedges, s)
			}
		}
		for _, h := range hedges {
			link, ok := argVal(h.Args, "link_span")
			if !ok {
				continue
			}
			sib, err := strconv.ParseInt(link, 10, 64)
			if err != nil {
				t.Fatalf("unparseable link_span %q", link)
			}
			sibArgs, ok := byID[sib]
			if !ok {
				continue // sibling span not recorded yet
			}
			if hv, _ := argVal(sibArgs, "hedge"); hv != "false" {
				t.Fatalf("hedge linked a non-primary span: %v", sibArgs)
			}
			// The primary started first, so the hedge's ID was already
			// stored when the primary ended: the link must be mutual.
			if back, ok := argVal(sibArgs, "link_span"); !ok || back != strconv.FormatInt(h.ID, 10) {
				t.Fatalf("primary does not link back to the hedge: %v", sibArgs)
			}
			return // found a fully linked pair
		}
		if time.Now().After(deadline) {
			t.Fatalf("no mutually linked hedge pair found in %d spans", tr.Len())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
