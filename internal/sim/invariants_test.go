package sim

import (
	"runtime"
	"sync"
	"testing"

	"predperf/internal/par"
	"predperf/internal/trace"
)

// TestSimInvariants checks properties every simulation must have,
// independent of what the simulated machine is.
func TestSimInvariants(t *testing.T) {
	// Under one OS thread, with the golden runs spread over several
	// goroutines, the runs interleave at preemption points; the results
	// must not notice.
	t.Run("GOMAXPROCS=1 golden", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		cs := goldenCases()
		res := make([]Result, len(cs))
		par.For(4, len(cs), func(i int) { res[i] = cs[i].run() })
		if got := digestResults(cs, res); got != goldenDigest {
			t.Fatalf("Result digest under GOMAXPROCS=1 = %s, want %s", got, goldenDigest)
		}
	})

	t.Run("committed classes sum to instructions", func(t *testing.T) {
		const n = 40000
		for _, name := range trace.Names() {
			tr, err := trace.Cached(name, n)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.WarmupInsts = n / 5
			r := Run(cfg, tr)
			var sum uint64
			for _, k := range r.Committed {
				sum += k
			}
			if sum != r.Instructions {
				t.Errorf("%s: sum(Committed) = %d, Instructions = %d", name, sum, r.Instructions)
			}
			if r.Instructions == 0 || r.Instructions > n-n/5 {
				t.Errorf("%s: Instructions = %d, want in (0, %d]", name, r.Instructions, n-n/5)
			}
		}
	})

	t.Run("concurrent runs agree", func(t *testing.T) {
		c := goldenCases()[2] // a mid-range design point
		var a, b Result
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); a = c.run() }()
		go func() { defer wg.Done(); b = c.run() }()
		wg.Wait()
		if a != b {
			t.Fatalf("concurrent runs of %s %s diverged:\n%+v\n%+v", c.bench, c.cfg.Key(), a, b)
		}
	})
}
