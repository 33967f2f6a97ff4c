package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// ---- ring ----

func TestRingLookupStable(t *testing.T) {
	r, err := NewRing([]string{"a", "b", "c"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"mcf", "gcc", "synthetic", "x"} {
		p1, s1 := r.Lookup(key)
		p2, s2 := r.Lookup(key)
		if p1 != p2 || s1 != s2 {
			t.Fatalf("Lookup(%q) unstable: (%s,%s) then (%s,%s)", key, p1, s1, p2, s2)
		}
		if p1 == s1 {
			t.Fatalf("Lookup(%q): secondary equals primary with 3 shards", key)
		}
	}
	// Shard order must not matter.
	r2, _ := NewRing([]string{"c", "a", "b"}, 0)
	for _, key := range []string{"mcf", "gcc", "synthetic"} {
		p1, _ := r.Lookup(key)
		p2, _ := r2.Lookup(key)
		if p1 != p2 {
			t.Fatalf("Lookup(%q) depends on shard order: %s vs %s", key, p1, p2)
		}
	}
}

func TestRingSingleShard(t *testing.T) {
	r, err := NewRing([]string{"only"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, s := r.Lookup("anything")
	if p != "only" || s != "only" {
		t.Fatalf("Lookup = (%s, %s), want (only, only)", p, s)
	}
}

func TestRingBalanceAndRelocation(t *testing.T) {
	shards := []string{"s1", "s2", "s3"}
	r, _ := NewRing(shards, 0)
	const keys = 3000
	count := map[string]int{}
	place := map[string]string{}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("model-%d", i)
		p, _ := r.Lookup(k)
		count[p]++
		place[k] = p
	}
	for _, s := range shards {
		if frac := float64(count[s]) / keys; frac < 0.15 {
			t.Fatalf("shard %s owns %.1f%% of keys; the ring is badly unbalanced", s, frac*100)
		}
	}
	// Adding a fourth shard must relocate roughly 1/4 of keys, not all.
	r4, _ := NewRing(append(shards, "s4"), 0)
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("model-%d", i)
		if p, _ := r4.Lookup(k); p != place[k] {
			moved++
		}
	}
	if frac := float64(moved) / keys; frac > 0.5 {
		t.Fatalf("adding one shard moved %.1f%% of keys; consistent hashing should move ~25%%", frac*100)
	}
}

func TestRingRejectsBadShards(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty shard list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate shard accepted")
	}
	if _, err := NewRing([]string{""}, 0); err == nil {
		t.Fatal("empty shard identifier accepted")
	}
}

// ---- Retry-After ----

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"},
		{61 * time.Second, "61"},
	}
	for _, c := range cases {
		if got := RetryAfterSeconds(c.d); got != c.want {
			t.Errorf("RetryAfterSeconds(%s) = %q, want %q", c.d, got, c.want)
		}
	}
}

// ---- pool health: eviction and readmission ----

// evalOK answers a fixed single-value EvalResponse.
func evalOK(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"values":[1.25],"sims":1}`)
}

func TestPoolEvictionAndReadmission(t *testing.T) {
	var broken atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		evalOK(w, r)
	}))
	defer flaky.Close()
	steady := httptest.NewServer(http.HandlerFunc(evalOK))
	defer steady.Close()

	p, err := NewPool([]string{flaky.URL, steady.URL}, PoolOptions{
		EvictAfter:    2,
		ReadmitAfter:  30 * time.Millisecond,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    2 * time.Millisecond,
		HedgeQuantile: -1, // hedging off: this test is about health gating
	})
	if err != nil {
		t.Fatal(err)
	}
	req := EvalRequest{Benchmark: "x", TraceLen: 1, Configs: []WireConfig{{1, 1, 1, 1, 1, 1, 1, 1, 1}}}

	broken.Store(true)
	// Enough requests that round-robin lands on the flaky worker at
	// least EvictAfter times; every request must still succeed via the
	// steady worker after retries.
	for i := 0; i < 6; i++ {
		if _, err := p.EvalChunk(context.Background(), req); err != nil {
			t.Fatalf("request %d failed despite a healthy worker: %v", i, err)
		}
	}
	evicted := func() *WorkerStatus {
		for _, ws := range p.Snapshot() {
			if ws.URL == flaky.URL {
				return &ws
			}
		}
		return nil
	}
	if ws := evicted(); ws == nil || !ws.Evicted {
		t.Fatalf("flaky worker not evicted after repeated failures: %+v", ws)
	}

	// Heal the worker; after the rest period a live request probes and
	// readmits it.
	broken.Store(false)
	time.Sleep(40 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := p.EvalChunk(context.Background(), req); err != nil {
			t.Fatalf("post-heal request failed: %v", err)
		}
		if ws := evicted(); ws != nil && !ws.Evicted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healed worker never readmitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPoolPermanentErrorNoRetry(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":{"code":"bad_request","message":"no"}}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	p, err := NewPool([]string{srv.URL}, PoolOptions{MaxAttempts: 5, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	req := EvalRequest{Benchmark: "x", TraceLen: 1, Configs: []WireConfig{{1, 1, 1, 1, 1, 1, 1, 1, 1}}}
	if _, err := p.EvalChunk(context.Background(), req); err == nil {
		t.Fatal("4xx answered no error")
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("4xx retried: %d attempts, want 1", n)
	}
	// A 4xx indicts the request, not the worker: no eviction.
	if ws := p.Snapshot()[0]; ws.Evicted {
		t.Fatal("worker evicted on a permanent client error")
	}
}

// ---- hedging ----

func TestPoolHedgesSlowRequests(t *testing.T) {
	var slow atomic.Bool
	slowSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() {
			time.Sleep(300 * time.Millisecond)
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

	// Warm the latency tracker past hedgeWarmup while both are fast.
	for i := 0; i < hedgeWarmup+2; i++ {
		if _, err := p.EvalChunk(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := p.hedgeDelay(); !ok {
		t.Fatal("hedging not armed after warmup")
	}

	hedgesBefore, winsBefore := cPoolHedges.Value(), cPoolHedgeWins.Value()
	slow.Store(true)
	// Round-robin guarantees the slow worker is the primary for half
	// the requests; those must hedge to the fast worker and return in
	// well under the slow worker's 300ms.
	start := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := p.EvalChunk(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if hedged := cPoolHedges.Value() - hedgesBefore; hedged == 0 {
		t.Fatal("no hedge launched against a 300ms primary with a 5ms trigger")
	}
	if wins := cPoolHedgeWins.Value() - winsBefore; wins == 0 {
		t.Fatal("no hedge won against a 300ms primary")
	}
	if elapsed >= 600*time.Millisecond {
		t.Fatalf("4 requests took %s; hedging should cut slow-primary latency", elapsed)
	}
}

// ---- wire config round trip ----

func TestWireConfigRoundTrip(t *testing.T) {
	for _, wc := range []WireConfig{
		{12, 96, 48, 48, 2048, 10, 32, 32, 2},
		{8, 64, 32, 16, 1024, 8, 16, 64, 3},
	} {
		if got := FromConfig(wc.Config()); got != wc {
			t.Fatalf("round trip changed the config: %+v -> %+v", wc, got)
		}
		if err := wc.Validate(); err != nil {
			t.Fatalf("valid config rejected: %v", err)
		}
	}
	bad := WireConfig{12, 0, 48, 48, 2048, 10, 32, 32, 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero ROB accepted")
	}
}
