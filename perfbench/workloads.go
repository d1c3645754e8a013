package main

import (
	"bytes"
	"fmt"
	"runtime"

	"alock/internal/harness"
	"alock/internal/locktable"
	"alock/internal/report"
	"alock/internal/scenario"
	"alock/internal/sweep"
)

// workload is one set of inputs the benchmark runs, generated from the seed.
type workloadDef struct {
	name, why string
	// configs generates the workload's run configs; tiny shrinks them to
	// smoke-test size with the same structure.
	configs func(seed int64, tiny bool) []harness.Config
	// sweep runs the configs through sweep.Runner and renders Figure 6, as
	// `figures -quick -only fig6` does; otherwise each config goes through
	// harness.Run, as `alockbench` does.
	sweep bool
	// serialTwin marks a windowed workload whose output must equal the
	// serial engine's.
	serialTwin bool
}

// fig6Scale is the scale `figures -quick` runs Figure 6 at.
func fig6Scale(seed int64, tiny bool) harness.Scale {
	return harness.Scale{Quick: !tiny, TestTiny: tiny, Seed: seed}
}

// sweepWorkers is the fig6-sweep fan-out: two workers, capped by the cores
// the process may use.
func sweepWorkers() int { return min(2, runtime.GOMAXPROCS(0)) }

var workloads = []*workloadDef{
	{
		name: "alock-closed",
		why:  "one long paper-scale ALock run at 95% locality, where the paper's claims live: event queue, thread handoff and ALock cohort logic do nearly all the work",
		configs: func(seed int64, tiny bool) []harness.Config {
			c := harness.Config{Algorithm: "alock", Nodes: 10, ThreadsPerNode: 8, Locks: 20, LocalityPct: 95, Seed: seed}
			if tiny {
				c.Nodes, c.ThreadsPerNode, c.WarmupNS, c.MeasureNS = 3, 2, 50_000, 250_000
			}
			return []harness.Config{c}
		},
	},
	{
		name: "fig6-sweep",
		why:  "Figure 6 grid at quick scale as 36 short runs on sweep.Runner: per-run memory construction, sweep fan-out, host memory and NIC loopback congestion show here",
		configs: func(seed int64, tiny bool) []harness.Config {
			sc, ok := scenario.Get("paper/fig6-latency")
			if !ok {
				return nil
			}
			return sc.Configs(fig6Scale(seed, tiny))
		},
		sweep: true,
	},
	{
		name: "svc-windowed",
		why:  "open-loop lock service below its shedding knee on the windowed executor: the only workload on the parallel executor and the cluster admission queues",
		configs: func(seed int64, tiny bool) []harness.Config {
			c := harness.Config{Algorithm: "alock", Nodes: 16, ThreadsPerNode: 12,
				Locks: locktable.MediumContentionLocks, ArrivalRate: 1.5e6, SvcPlacement: "hash",
				Seed: seed, EngineShards: 2, MeasureNS: 12_000_000}
			if tiny {
				c.Nodes, c.ThreadsPerNode, c.ArrivalRate, c.WarmupNS, c.MeasureNS = 3, 2, 7.5e5, 50_000, 250_000
			}
			return []harness.Config{c}
		},
		serialTwin: true,
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// primaryPass is one run of a workload on the repo's own entry points.
type primaryPass struct {
	cfgs    []harness.Config
	results []harness.Result
	errs    []error
	// Fan-out bookkeeping for sweep workloads: host time at the start and
	// end of the sweep and at each OnResult completion, and the render time.
	start, end  int64
	completions []int64
	workers     int
	renderNS    int64
}

// runPrimary generates the workload's inputs and runs them the way the
// repo's commands do.
func (w *workloadDef) runPrimary(seed int64, tiny bool) primaryPass {
	p := primaryPass{start: clock()}
	if !w.sweep {
		p.cfgs = w.configs(seed, tiny)
		p.results = make([]harness.Result, len(p.cfgs))
		p.errs = make([]error, len(p.cfgs))
		for i, c := range p.cfgs {
			p.results[i], p.errs[i] = safeRun(c)
		}
		p.end = clock()
		return p
	}
	p.workers = sweepWorkers()
	r := sweep.Runner{Parallel: p.workers, OnResult: func(sweep.Progress) {
		p.completions = append(p.completions, clock())
	}}
	var err error
	panels := harness.Figure6(fig6Scale(seed, tiny), func(grid []harness.Config) []harness.Result {
		p.cfgs = grid
		p.results, err = r.Run(grid)
		return p.results
	})
	p.end = clock()
	var buf bytes.Buffer
	report.Figure6(&buf, panels)
	report.Figure6CSV(&buf, panels)
	p.renderNS = clock() - p.end
	p.errs = make([]error, len(p.cfgs))
	for i := range p.errs {
		p.errs[i] = err
	}
	return p
}

// safeRun is harness.Run with a panic returned as an error.
func safeRun(c harness.Config) (res harness.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run panicked: %v", p)
		}
	}()
	return harness.Run(c)
}

// idleFrac is the share of the sweep's worker time spent idle. Workers
// claim the next config as soon as they report one, so once the last
// config is claimed each worker's final report is one of the last
// `workers` completions; a worker idles from its final report to the end.
func idleFrac(start, end int64, completions []int64, workers int) float64 {
	if workers < 1 || end <= start || len(completions) < workers {
		return 0
	}
	var idle int64
	for _, c := range completions[len(completions)-workers:] {
		idle += end - c
	}
	return float64(idle) / float64(int64(workers)*(end-start))
}
