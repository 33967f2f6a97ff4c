// Package doe implements the Plackett–Burman screening designs that the
// paper's related work discusses as the alternative design-of-experiments
// methodology (Yi et al., HPCA 2005, ref [20]): n parameter settings that
// allow estimating n main effects in a little over n simulations, with a
// foldover to keep main effects unconfounded with two-factor
// interactions. The paper's §5 criticism — that these designs cannot
// quantify interactions — is directly testable against the linear-model
// significance estimates and the regression-tree splits.
package doe

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"predperf/internal/core"
	"predperf/internal/design"
)

// pb12Generator is the standard Plackett–Burman generator row for a
// 12-run design (11 two-level columns).
var pb12Generator = []int{+1, +1, -1, +1, +1, +1, -1, -1, -1, +1, -1}

// PlackettBurman12 returns the 12×11 ±1 design matrix: eleven cyclic
// shifts of the generator row plus a final all-minus row.
func PlackettBurman12() [][]int {
	n := len(pb12Generator)
	m := make([][]int, n+1)
	for r := 0; r < n; r++ {
		row := make([]int, n)
		for c := 0; c < n; c++ {
			row[c] = pb12Generator[(c+n-r)%n]
		}
		m[r] = row
	}
	last := make([]int, n)
	for c := range last {
		last[c] = -1
	}
	m[n] = last
	return m
}

// Foldover appends the sign-reversed mirror of every run, doubling the
// design. In the folded design, main effects are clear of two-factor
// interactions.
func Foldover(m [][]int) [][]int {
	out := make([][]int, 0, 2*len(m))
	out = append(out, m...)
	for _, row := range m {
		mir := make([]int, len(row))
		for i, v := range row {
			mir[i] = -v
		}
		out = append(out, mir)
	}
	return out
}

// Effect is one parameter's estimated main effect from the screening
// design.
type Effect struct {
	Param  int
	Name   string
	Effect float64 // mean(response | +1) − mean(response | −1)
}

// Screening is the result of a Plackett–Burman screening experiment.
type Screening struct {
	Runs    int
	Effects []Effect // sorted by |Effect| descending
}

// Screen runs a (folded-over) Plackett–Burman experiment on the design
// space: each ±1 level maps to the parameter's High/Low endpoint, the
// evaluator supplies the response, and main effects are estimated by
// contrast. Spaces with more than 11 parameters are not supported by the
// 12-run base design.
func Screen(ev core.Evaluator, space *design.Space, foldover bool) (*Screening, error) {
	k := space.N()
	if k > 11 {
		return nil, errors.New("doe: more than 11 factors needs a larger base design")
	}
	m := PlackettBurman12()
	if foldover {
		m = Foldover(m)
	}
	cfgs := make([]design.Config, len(m))
	for r, row := range m {
		pt := make(design.Point, k)
		for c := 0; c < k; c++ {
			if row[c] > 0 {
				pt[c] = 1 // the parameter's High (favorable) endpoint
			} else {
				pt[c] = 0 // the Low (hostile) endpoint
			}
		}
		cfgs[r] = space.Decode(pt, 2)
	}
	responses, err := ev.Eval(context.TODO(), cfgs)
	if err != nil {
		return nil, fmt.Errorf("doe: simulating the design: %w", err)
	}
	sc := &Screening{Runs: len(m)}
	for c := 0; c < k; c++ {
		var plus, minus float64
		var np, nm int
		for r, row := range m {
			if row[c] > 0 {
				plus += responses[r]
				np++
			} else {
				minus += responses[r]
				nm++
			}
		}
		sc.Effects = append(sc.Effects, Effect{
			Param:  c,
			Name:   space.Params[c].Name,
			Effect: plus/float64(np) - minus/float64(nm),
		})
	}
	sort.Slice(sc.Effects, func(i, j int) bool {
		return math.Abs(sc.Effects[i].Effect) > math.Abs(sc.Effects[j].Effect)
	})
	return sc, nil
}
