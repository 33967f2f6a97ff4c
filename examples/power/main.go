// Power: the §6 extension — "similar models can be developed for other
// metrics such as power consumption." This example builds predictive
// models for CPI *and* energy-delay product (EDP) from the same set of
// simulations, then walks the pipeline-depth / L2-size tradeoff to find
// an energy-efficient configuration that a pure-performance search would
// miss.
package main

import (
	"context"
	"fmt"
	"log"

	"predperf"
	"predperf/internal/core"
)

func main() {
	log.SetFlags(0)
	const bench = "equake"

	ev, err := core.NewSimEvaluator(bench, 60_000)
	if err != nil {
		log.Fatal(err)
	}
	opt := predperf.Options{LHSCandidates: 64}

	// Both models come from the same 80 simulations: the evaluator
	// memoizes full simulator results, and the metric views share them.
	cpiModel, err := predperf.BuildModel(ev, 80, opt)
	if err != nil {
		log.Fatal(err)
	}
	edpModel, err := predperf.BuildModel(ev.WithMetric(core.MetricEDP), 80, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CPI and EDP models for %s share %d simulations\n\n", bench, ev.Simulations())

	// Validate both.
	tsCPI, err := predperf.NewTestSet(context.Background(), ev, nil, 25, 9)
	if err != nil {
		log.Fatal(err)
	}
	tsEDP, err := predperf.NewTestSet(context.Background(), ev.WithMetric(core.MetricEDP), nil, 25, 9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CPI model: mean %.2f%% error | EDP model: mean %.2f%% error\n\n",
		cpiModel.Validate(tsCPI).Mean, edpModel.Validate(tsEDP).Mean)

	// Sweep the classic power-performance axis: pipeline depth.
	base := predperf.Config{
		PipeDepth: 12, ROBSize: 96, IQSize: 48, LSQSize: 48,
		L2SizeKB: 2048, L2Lat: 10, IL1SizeKB: 32, DL1SizeKB: 32, DL1Lat: 2,
	}
	fmt.Println("pipeline-depth sweep (model predictions):")
	fmt.Printf("%8s %10s %12s\n", "depth", "CPI", "EDP nJ·cyc")
	bestEDP, bestCPI := 1e18, 1e18
	var edpPick, cpiPick int
	for _, d := range []int{7, 9, 12, 15, 18, 21, 24} {
		cfg := base
		cfg.PipeDepth = d
		cpi := cpiModel.PredictConfig(cfg)
		edp := edpModel.PredictConfig(cfg)
		fmt.Printf("%8d %10.3f %12.2f\n", d, cpi, edp)
		if edp < bestEDP {
			bestEDP, edpPick = edp, d
		}
		if cpi < bestCPI {
			bestCPI, cpiPick = cpi, d
		}
	}
	fmt.Printf("\nperformance-optimal depth: %d; EDP-optimal depth: %d\n", cpiPick, edpPick)

	// Verify the EDP pick against the simulator's power model.
	cfg := base
	cfg.PipeDepth = edpPick
	res, err := predperf.Simulate(cfg, bench, 60_000)
	if err != nil {
		log.Fatal(err)
	}
	simCfg := predperf.SimFromDesign(cfg)
	fmt.Printf("simulator check at depth %d: CPI %.3f, %.1f W @2GHz, EDP %.2f nJ·cyc\n",
		edpPick, res.CPI(), res.AvgPowerW(simCfg, 2.0), res.EDP(simCfg)/1000)
}
