// Package adaptive implements the sampling extension sketched in the
// paper's conclusion (§6): "the simulation costs involved in
// constructing predictive models can potentially be reduced using
// adaptive sampling, wherein sets of design points to simulate are
// selected based on data from initial small samples."
//
// The procedure starts from a small space-filling seed sample, then
// iterates: fit an RBF model, estimate where it is uncertain with k-fold
// cross-validation residuals, and add a batch of new design points drawn
// from a space-filling candidate pool, scored by nearby residual mass
// and distance from the existing sample (exploitation + exploration).
package adaptive

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/rbf"
	"predperf/internal/sample"
)

// Options configures the adaptive build.
type Options struct {
	Space       *design.Space
	InitialSize int     // seed LHS size (default 30)
	BatchSize   int     // points added per round (default 10)
	MaxSize     int     // total simulation budget (default 90)
	TargetCV    float64 // stop early when the CV mean error (%) drops below this
	PoolSize    int     // candidate pool per round (default 4×MaxSize)
	Folds       int     // cross-validation folds (default 5)
	Explore     float64 // exploration weight on distance-to-sample (default 1)
	RBF         rbf.Options
	Seed        int64
}

func (o Options) withDefaults() Options {
	if o.Space == nil {
		o.Space = design.PaperSpace()
	}
	if o.InitialSize <= 0 {
		o.InitialSize = 30
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 10
	}
	if o.MaxSize <= 0 {
		o.MaxSize = 90
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 4 * o.MaxSize
	}
	if o.Folds < 2 {
		o.Folds = 5
	}
	if o.Explore <= 0 {
		o.Explore = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Round records one iteration's diagnostics.
type Round struct {
	Size    int     // sample size after this round
	CVMean  float64 // k-fold cross-validation mean % error before adding points
	Centers int     // RBF centers in the round's model
}

// Build runs the adaptive procedure and returns the final model plus the
// per-round history. The returned model is interchangeable with the
// output of core.BuildRBFModel.
func Build(ev core.Evaluator, opt Options) (*core.Model, []Round, error) {
	opt = opt.withDefaults()
	if opt.InitialSize >= opt.MaxSize {
		return nil, nil, errors.New("adaptive: InitialSize must be below MaxSize")
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	space := opt.Space

	// Seed sample: space-filling LHS.
	raw, _ := sample.BestLHS(space, opt.InitialSize, 32, rng)
	var pts []design.Point
	var cfgs []design.Config
	var ys []float64
	add := func(batch []design.Point) error {
		for _, p := range batch {
			cfg := space.Decode(p, opt.MaxSize)
			cfgs = append(cfgs, cfg)
			pts = append(pts, space.Encode(cfg))
		}
		vals, err := ev.Eval(context.TODO(), cfgs[len(ys):])
		ys = append(ys, vals...)
		return err
	}
	if err := add(raw); err != nil {
		return nil, nil, fmt.Errorf("adaptive: simulating the seed sample: %w", err)
	}

	var history []Round
	var fit *rbf.FitResult
	for {
		var err error
		fit, err = rbf.Fit(asFloats(pts), ys, opt.RBF)
		if err != nil {
			return nil, history, err
		}
		cv := crossValidate(pts, ys, opt)
		history = append(history, Round{Size: len(pts), CVMean: cv, Centers: fit.NumCenters()})
		if len(pts) >= opt.MaxSize || (opt.TargetCV > 0 && cv <= opt.TargetCV) {
			break
		}

		// Residual magnitude at each training point from the CV folds is
		// already folded into cv; for acquisition we need point-wise
		// residuals.
		resid := pointwiseCVResiduals(pts, ys, opt)

		// Candidate pool: a fresh space-filling sample.
		pool := sample.LHS(space, opt.PoolSize, rng)
		batch := opt.BatchSize
		if len(pts)+batch > opt.MaxSize {
			batch = opt.MaxSize - len(pts)
		}
		chosen := acquire(pool, pts, resid, batch, opt.Explore)
		if err := add(chosen); err != nil {
			return nil, history, fmt.Errorf("adaptive: simulating round %d: %w", len(history), err)
		}
	}

	model := &core.Model{
		Space:      space,
		SampleSize: len(pts),
		Fit:        fit,
		Points:     pts,
		Configs:    cfgs,
		Responses:  ys,
	}
	return model, history, nil
}

func asFloats(pts []design.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}

// crossValidate returns the k-fold CV mean absolute percentage error.
func crossValidate(pts []design.Point, ys []float64, opt Options) float64 {
	res := pointwiseCVResiduals(pts, ys, opt)
	var sum float64
	n := 0
	for i, r := range res {
		if math.IsNaN(r) {
			continue
		}
		sum += 100 * r / math.Abs(ys[i])
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

// pointwiseCVResiduals returns |prediction − truth| for each training
// point, predicted by a model fitted without that point's fold.
func pointwiseCVResiduals(pts []design.Point, ys []float64, opt Options) []float64 {
	n := len(pts)
	res := make([]float64, n)
	folds := opt.Folds
	if folds > n {
		folds = n
	}
	for f := 0; f < folds; f++ {
		var trX [][]float64
		var trY []float64
		var holdIdx []int
		for i := 0; i < n; i++ {
			if i%folds == f {
				holdIdx = append(holdIdx, i)
			} else {
				trX = append(trX, pts[i])
				trY = append(trY, ys[i])
			}
		}
		fit, err := rbf.Fit(trX, trY, opt.RBF)
		if err != nil {
			for _, i := range holdIdx {
				res[i] = math.NaN()
			}
			continue
		}
		for _, i := range holdIdx {
			res[i] = math.Abs(fit.Predict(pts[i]) - ys[i])
		}
	}
	return res
}

// acquire greedily picks batch candidates maximizing
//
//	score(c) = residualMass(c) · (1 + explore·dmin(c))
//
// where residualMass is the inverse-distance-weighted CV residual of the
// training points near c and dmin is the distance to the nearest already
// chosen or training point (so batches spread out).
func acquire(pool, train []design.Point, resid []float64, batch int, explore float64) []design.Point {
	chosen := make([]design.Point, 0, batch)
	taken := make([]bool, len(pool))
	for len(chosen) < batch {
		bestScore := math.Inf(-1)
		bestIdx := -1
		for ci, c := range pool {
			if taken[ci] {
				continue
			}
			mass := 0.0
			wsum := 0.0
			dminTrain := math.Inf(1)
			for ti, t := range train {
				d := dist(c, t)
				if d < dminTrain {
					dminTrain = d
				}
				if math.IsNaN(resid[ti]) {
					continue
				}
				w := 1 / (0.05 + d*d)
				mass += w * resid[ti]
				wsum += w
			}
			if wsum > 0 {
				mass /= wsum
			}
			dmin := dminTrain
			for _, p := range chosen {
				if d := dist(c, p); d < dmin {
					dmin = d
				}
			}
			score := mass * (1 + explore*dmin)
			if score > bestScore {
				bestScore, bestIdx = score, ci
			}
		}
		if bestIdx < 0 {
			break
		}
		taken[bestIdx] = true
		chosen = append(chosen, pool[bestIdx])
	}
	return chosen
}

func dist(a, b design.Point) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
