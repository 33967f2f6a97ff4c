// Trends: reproduce the §4.1 microarchitectural-trend study (Figure 6)
// interactively — predict how CPI varies over the interaction of the
// instruction-cache size and L2 latency for vortex, and compare the
// model's dashed lines against the simulator's solid lines.
package main

import (
	"fmt"
	"log"
	"strings"

	"predperf"
)

func main() {
	log.SetFlags(0)
	const bench = "vortex"

	ev, err := predperf.NewSimEvaluator(bench, 60_000)
	if err != nil {
		log.Fatal(err)
	}
	model, err := predperf.BuildModel(ev, 90, predperf.Options{})
	if err != nil {
		log.Fatal(err)
	}

	base := predperf.Config{
		PipeDepth: 15, ROBSize: 76, IQSize: 38, LSQSize: 38,
		L2SizeKB: 1024, L2Lat: 12, IL1SizeKB: 32, DL1SizeKB: 32, DL1Lat: 2,
	}
	lats := []int{5, 8, 11, 14, 17, 20}
	il1s := []int{8, 16, 32, 64}

	fmt.Printf("CPI trends for %s over il1 size × L2 latency (simulated / predicted)\n\n", bench)
	fmt.Printf("%8s", "il1")
	for _, lat := range lats {
		fmt.Printf("   lat=%-2d      ", lat)
	}
	fmt.Println()
	worstTrendMiss := 0
	for _, il1 := range il1s {
		fmt.Printf("%6dKB", il1)
		prevSim, prevPred := 0.0, 0.0
		for j, lat := range lats {
			cfg := base
			cfg.IL1SizeKB = il1
			cfg.L2Lat = lat
			sim, _ := ev.EvalRan(cfg)
			pred := model.PredictConfig(cfg)
			marker := " "
			if j > 0 {
				// Flag cells where the model gets the direction of the
				// latency trend wrong.
				if (sim-prevSim)*(pred-prevPred) < 0 {
					marker = "!"
					worstTrendMiss++
				}
			}
			prevSim, prevPred = sim, pred
			fmt.Printf(" %5.2f/%5.2f%s ", sim, pred, marker)
		}
		fmt.Println()
	}
	fmt.Println(strings.Repeat("-", 20))
	fmt.Printf("cells flagged '!' = model predicted the wrong direction (%d total)\n", worstTrendMiss)
	fmt.Printf("as in the paper, CPI rises with L2 latency and the effect is larger\n")
	fmt.Printf("for small instruction caches, where misses reach the L2 more often.\n")
}
