package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"predperf/internal/design"
	"predperf/internal/trace"
)

// goldenInsts is the trace length of the golden runs; warmup is a fifth
// of it, as in the model-building evaluator.
const goldenInsts = 40000

// goldenDigest is the SHA-256 over every golden Result. It was recorded
// before the engine's hot loop was made allocation-free; any change to
// the simulator's timing, statistics or event ordering changes it.
const goldenDigest = "fa8bba4111fc2309c92107d524a1c504f0fdca0c6dca1d28017053c781bddd10"

// goldenConfigs are four fixed points of the paper's design space: the
// performance-hostile corner, the generous corner, the center and a
// mixed point.
func goldenConfigs() []design.Config {
	space := design.PaperSpace()
	pts := []design.Point{
		{0, 0, 0, 0, 0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1, 1, 1, 1, 1},
		{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5},
		{0.2, 0.9, 0.3, 0.7, 0.1, 0.8, 0.4, 0.6, 0.3},
	}
	cfgs := make([]design.Config, len(pts))
	for i, p := range pts {
		cfgs[i] = space.Decode(p, 90)
	}
	return cfgs
}

// goldenCase is one (profile, design point) run of the golden set.
type goldenCase struct {
	bench string
	cfg   design.Config
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, name := range trace.Names() {
		for _, d := range goldenConfigs() {
			cs = append(cs, goldenCase{name, d})
		}
	}
	return cs
}

func (g goldenCase) run() Result {
	tr, err := trace.Cached(g.bench, goldenInsts)
	if err != nil {
		panic(err)
	}
	sc := FromDesign(g.cfg)
	sc.WarmupInsts = goldenInsts / 5
	return Run(sc, tr)
}

// digestResults hashes the results of goldenCases in order.
func digestResults(cs []goldenCase, res []Result) string {
	h := sha256.New()
	for i, c := range cs {
		fmt.Fprintf(h, "%s %s %+v\n", c.bench, c.cfg.Key(), res[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestResultGolden pins every statistic of 32 runs (8 profiles × 4
// design points) to a recorded digest, so a speed change to the engine
// cannot silently change what it simulates.
func TestResultGolden(t *testing.T) {
	cs := goldenCases()
	res := make([]Result, len(cs))
	for i, c := range cs {
		res[i] = c.run()
	}
	if got := digestResults(cs, res); got != goldenDigest {
		t.Fatalf("Result digest = %s, want %s", got, goldenDigest)
	}
}
