package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"predperf/internal/obs"
)

// buildRun is one predperf model build as the benchmark observed it.
type buildRun struct {
	seed      int64
	wall      float64  // s, launch until predperf exited
	firstLine float64  // s, launch until predperf's first line (locally: the trace is generated)
	setup     float64  // s, build workload: firstLine; farm: launch until both workers answer /healthz
	rssMiB    float64  // peak RSS of predperf plus, on the farm, both workers
	cpu       float64  // s, user+system CPU time of predperf plus, on the farm, both workers
	summary   []string // the model summary lines predperf prints
	valMean   float64  // validation mean absolute % error
	sims      int      // predperf's "simulations run"

	// Farm only: exact simulations per worker (/healthz evaluators[].sims)
	// and the shared cluster.worker_sims counter it is checked against.
	exactSims, counterSims int

	report  *obs.Report   // predperf -report, with -trace on (traced builds)
	workers []*obs.Report // the workers' /metricz (traced farm runs)
}

// summaryPrefixes are the predperf output lines that describe the built
// model; the replica formats the same lines from its own model.
var summaryPrefixes = []string{"  sample discrepancy", "  method parameters", "  RBF centers", "  validation ("}

// buildSeed is predperf's -seed for timed build i of the run. It is
// never 0, which predperf would replace by 1.
func (r *run) buildSeed(i int) int64 { return r.seed*1000 + int64(i) + 1 }

// build runs one model build of the workload's profile: locally, or
// through two fresh simworker processes. Fresh workers every build keep
// their simulation memo cold, as a first build would find it. A traced
// build runs predperf with -report and -trace, so its report holds a
// stage span for every layer of the build and every design point.
func (r *run) build(seed int64, save string, traced bool) (*buildRun, error) {
	args := []string{"-bench", r.wl.bench, "-insts", strconv.Itoa(traceInsts),
		"-sample", strconv.Itoa(sampleSize), "-test", strconv.Itoa(testPoints),
		"-lhs", strconv.Itoa(lhsCands), "-seed", strconv.FormatInt(seed, 10)}
	if save != "" {
		args = append(args, "-save", save)
	}
	var reportPath string
	if traced {
		reportPath = filepath.Join(r.work, fmt.Sprintf("report-%d.json", seed))
		args = append(args, "-report", reportPath, "-trace", filepath.Join(r.work, fmt.Sprintf("trace-%d.json", seed)))
	}
	if !r.wl.farm {
		b, err := r.predperf(args)
		if err != nil {
			return nil, err
		}
		b.seed, b.setup = seed, b.firstLine
		return b, readReport(b, reportPath)
	}

	t0 := time.Now()
	ws := make([]*server, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i], errs[i] = startServer(filepath.Join(r.bin, "simworker"),
				filepath.Join(r.work, fmt.Sprintf("simworker%d.log", i)), "/healthz",
				"-addr", "127.0.0.1:0")
		}(i)
	}
	wg.Wait()
	stopAll := func() (rss, cpu float64) {
		for _, w := range ws {
			if w != nil {
				r, c := w.stop()
				rss, cpu = rss+r, cpu+c
			}
		}
		return rss, cpu
	}
	for _, err := range errs {
		if err != nil {
			stopAll()
			return nil, err
		}
	}
	setup := time.Since(t0).Seconds()
	args = append(args, "-sim-workers", ws[0].url("")+","+ws[1].url(""))
	b, err := r.predperf(args)
	if err != nil {
		stopAll()
		return nil, err
	}
	b.seed, b.setup = seed, setup
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, w := range ws {
		var h struct {
			Sims       int `json:"sims"`
			Evaluators []struct {
				Sims int `json:"sims"`
			} `json:"evaluators"`
		}
		if err := getJSON(ctx, w.url("/healthz"), &h); err != nil {
			stopAll()
			return nil, err
		}
		b.counterSims += h.Sims
		for _, e := range h.Evaluators {
			b.exactSims += e.Sims
		}
		if traced {
			rep := new(obs.Report)
			if err := getJSON(ctx, w.url("/metricz?format=json"), rep); err != nil {
				stopAll()
				return nil, err
			}
			b.workers = append(b.workers, rep)
		}
	}
	rss, cpu := stopAll()
	b.rssMiB += rss
	b.cpu += cpu
	return b, readReport(b, reportPath)
}

func readReport(b *buildRun, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	b.report = new(obs.Report)
	return json.NewDecoder(f).Decode(b.report)
}

// predperf runs one predperf process to completion and parses its
// summary.
func (r *run) predperf(args []string) (*buildRun, error) {
	cmd := command(filepath.Join(r.bin, "predperf"), args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stopWatch := watchPeakRSS(cmd.Process.Pid)
	b := &buildRun{}
	sc := bufio.NewScanner(out)
	first := true
	for sc.Scan() {
		line := sc.Text()
		if first {
			b.firstLine = time.Since(t0).Seconds()
		}
		first = false
		for _, p := range summaryPrefixes {
			if strings.HasPrefix(line, p) {
				b.summary = append(b.summary, line)
			}
		}
		if v, ok := strings.CutPrefix(line, "  simulations run    : "); ok {
			b.sims, _ = strconv.Atoi(v)
		}
		if v, ok := strings.CutPrefix(line, "  validation ("); ok {
			_, m, _ := strings.Cut(v, "mean ")
			m, _, _ = strings.Cut(m, "%")
			b.valMean, _ = strconv.ParseFloat(m, 64)
		}
	}
	io.Copy(io.Discard, out)
	b.rssMiB = stopWatch()
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("predperf %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	b.wall = time.Since(t0).Seconds()
	b.cpu = cpuSeconds(cmd.ProcessState)
	if len(b.summary) != len(summaryPrefixes) || b.valMean <= 0 {
		return nil, fmt.Errorf("predperf printed an incomplete summary: %q", b.summary)
	}
	if b.rssMiB == 0 {
		return nil, fmt.Errorf("predperf's peak RSS could not be read from /proc")
	}
	return b, nil
}
