package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"alock/internal/harness"
)

// minReps is the fewest repetitions a run makes, so its medians rest on
// more than one sample even when one repetition outlasts the budget.
const minReps = 3

// minSetups is the fewest set-up passes behind setup_s; set-up is cheap
// next to a repetition, so it is sampled more often.
const minSetups = 5

// measure produces the end-to-end metrics: the workload is repeated on the
// repo's entry points until the budget is spent, every run is checked, and
// host times are medians over the repetitions. Set-up time is measured by
// assembling (without running) every config of each repetition.
func (b *bench) measure() (*outcome, error) {
	ck := newChecker()
	var walls, setups []float64
	var first primaryPass
	start := clock()
	steal0 := readSteal()
	for rep := 0; ; rep++ {
		// Each repetition starts like a fresh process: nothing left on the
		// heap and no freed pages kept, so its time and peak memory do not
		// depend on where the previous repetition's collections fell.
		debug.FreeOSMemory()
		p := b.w.runPrimary(b.seed, b.tiny)
		for i := range p.cfgs {
			ck.check(fmt.Sprintf("repetition %d", rep+1), i, p.results[i], p.errs[i])
		}
		walls = append(walls, secs(clock()-p.start))
		if rep == 0 {
			first = p
		}
		setups = append(setups, b.setupOnly(p.cfgs, ck))
		perRep := (clock() - start) / int64(rep+1)
		if rep+1 >= minReps && clock()-start+perRep > b.budgetNS {
			break
		}
	}
	for len(setups) < minSetups {
		setups = append(setups, b.setupOnly(first.cfgs, ck))
	}
	steal := readSteal().since(steal0)
	if b.w.serialTwin {
		debug.FreeOSMemory()
		for i, c := range first.cfgs {
			c.EngineShards = 0
			res, err := safeRun(c)
			ck.check("serial-engine twin", i, res, err)
		}
	}

	o := &outcome{}
	o.notes = append(o.notes, fmt.Sprintf(
		"host CPU stolen by the hypervisor during the repetitions: %.1f%% (wall_s includes it)", 100*steal))
	o.set("wall_s", median(walls), "s")
	o.set("setup_s", median(setups), "s")
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	o.set("peak_rss_mb", rss, "MiB")
	o.set("runs_ok_frac", 1-failShare(ck.failed, ck.attempted), "ratio")
	sim := simMetrics(first.results)
	o.set("sim_mops", sim.mops, "Mops/s")
	o.set("sim_p50_us", sim.p50us, "us")
	o.set("sim_p99_us", sim.p99us, "us")
	o.set("sim_served_frac", sim.served, "ratio")
	o.notes = append(o.notes,
		fmt.Sprintf("wall_s over %d repetitions: median %.4f, quartiles %s", len(walls), median(walls), quartileText(walls)),
		fmt.Sprintf("setup_s over %d repetitions: median %.4f, quartiles %s", len(setups), median(setups), quartileText(setups)),
		fmt.Sprintf("simulated latency: %d configs, fewest samples %d; highest percentile with >=10 samples beyond it: p%g",
			len(first.results), sim.minSamples, highestPercentile(sim.minSamples)))
	return o.finish(ck), nil
}

// stealSample is the machine-wide CPU time counters of /proc/stat, in ticks.
type stealSample struct{ steal, total float64 }

// readSteal reads the aggregate cpu line of /proc/stat; on a system without
// it the sample is zero and the steal share reads 0.
func readSteal() stealSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealSample{}
	}
	var s stealSample
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user..steal; guest time is already inside user
			s.total += x
		}
		if i == 7 {
			s.steal = x
		}
	}
	return s
}

// since is the share of CPU time stolen between s0 and s.
func (s stealSample) since(s0 stealSample) float64 {
	if d := s.total - s0.total; d > 0 {
		return (s.steal - s0.steal) / d
	}
	return 0
}

func quartileText(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4f..%.4f (spread %.3f)", q1, q3, spread(xs))
}

// setupOnly assembles each config without running it and returns the
// summed set-up seconds. Each assembly starts from a collected heap, so
// whether its memory regions come from freed spans or fresh pages does not
// depend on where the previous collection happened to fall.
func (b *bench) setupOnly(cfgs []harness.Config, ck *checker) float64 {
	var total int64
	for i, c := range cfgs {
		runtime.GC()
		a, err := assemble(c, nil)
		if err != nil {
			ck.check("set-up", i, harness.Result{}, err)
			continue
		}
		total += a.setupEnd - a.start
	}
	return secs(total)
}

// simSummary is the simulated-cluster view of a workload's results.
type simSummary struct {
	mops, p50us, p99us float64 // geometric means over configs
	served             float64 // served ÷ attempted operations
	minSamples         int64
}

func simMetrics(rs []harness.Result) simSummary {
	var mops, p50, p99 []float64
	var served, attempted int64
	s := simSummary{minSamples: math.MaxInt64}
	for _, r := range rs {
		mops = append(mops, r.Throughput/1e6)
		p50 = append(p50, histQuantile(r.Latency, r.CDF, 0.50)/1e3)
		p99 = append(p99, histQuantile(r.Latency, r.CDF, 0.99)/1e3)
		s.minSamples = min(s.minSamples, r.Latency.Count)
		if r.Svc != nil {
			served += r.Svc.Served
			attempted += r.Svc.Offered
		} else {
			served += r.Ops
			attempted += r.Ops + r.Timeouts + r.TxnAborts
		}
	}
	s.mops, s.p50us, s.p99us = geomean(mops), geomean(p50), geomean(p99)
	if attempted > 0 {
		s.served = float64(served) / float64(attempted)
	}
	return s
}

// assembledPass is one pass over a workload's configs on the benchmark's own
// assembly, traced or not, always on the serial engine.
type assembledPass struct {
	results []harness.Result
	timings []runTiming
	traces  []*runTrace // nil entries when untraced
	wallNS  int64
	allocs  float64 // heap objects allocated during the pass
	gcFrac  float64 // GC share of the CPU time used
	log     traceLog
}

func (b *bench) assembledPass(cfgs []harness.Config, traced bool, ck *checker) assembledPass {
	p := assembledPass{results: make([]harness.Result, len(cfgs)),
		timings: make([]runTiming, len(cfgs)), traces: make([]*runTrace, len(cfgs))}
	g0 := readRuntime()
	start := clock()
	root := p.log.add(span{Name: "workload " + b.w.name, Start: start})
	for i, c := range cfgs {
		c.EngineShards = 0
		var rt *runTrace
		label := "untraced assembly"
		if traced {
			rt, label = &runTrace{}, "traced assembly"
		}
		a, err := assemble(c, rt)
		if err != nil {
			ck.check(label, i, harness.Result{}, err)
			continue
		}
		res, tm, err := a.run()
		ck.check(label, i, res, err)
		p.results[i], p.timings[i], p.traces[i] = res, tm, rt
		cfgSpan := p.log.add(span{Parent: root, Name: fmt.Sprintf("config %d %s", i, c.Algorithm),
			Start: tm.start, End: tm.end, Args: map[string]any{"locks": c.Locks, "locality_pct": c.LocalityPct}})
		p.log.add(span{Parent: cfgSpan, Name: "setup", Start: tm.start, End: tm.setupEnd,
			Args: map[string]any{"sim.New_ns": tm.memNS}})
		if rt != nil {
			p.log.addRun(cfgSpan, tm.setupEnd, tm.runEnd, rt)
		} else {
			p.log.add(span{Parent: cfgSpan, Name: "engine run", Start: tm.setupEnd, End: tm.runEnd})
		}
		p.log.add(span{Parent: cfgSpan, Name: "aggregation", Start: tm.runEnd, End: tm.end})
	}
	end := clock()
	p.log.spans[root-1].End = end
	p.wallNS = end - start
	g1 := readRuntime()
	p.allocs = g1.allocs - g0.allocs
	if used := (g1.total - g1.idle) - (g0.total - g0.idle); used > 0 {
		p.gcFrac = (g1.gc - g0.gc) / used
	}
	return p
}

// runtimeSample is a reading of the Go runtime's CPU and allocation
// counters.
type runtimeSample struct{ gc, total, idle, allocs float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gc: val(0), total: val(1), idle: val(2), allocs: val(3)}
}

// heapWatch samples the live heap until stopped and reports its peak.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// done stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapWatch) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
