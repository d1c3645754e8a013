package main

import (
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sort"

	"alock/internal/harness"
)

// traced produces the per-layer metrics. It alternates untraced and traced
// passes over the workload's configs on the benchmark's assembly (serial
// engine) until the budget is spent, runs the workload once more on the
// repo's entry points, and measures the micro costs. Every run is checked
// against the same per-config digest, so the traced runs, the untraced runs
// and (for the service) the windowed and serial engines must agree.
func (b *bench) traced() (*outcome, error) {
	ck := newChecker()
	cfgs := b.w.configs(b.seed, b.tiny)
	heap := watchHeap()
	var plain, traced []assembledPass
	start := clock()
	for len(plain) < 1 || clock()-start < b.budgetNS/2 {
		plain = append(plain, b.assembledPass(cfgs, false, ck))
		traced = append(traced, b.assembledPass(cfgs, true, ck))
	}
	heapPeak := heap.done()
	debug.FreeOSMemory()
	prim := b.w.runPrimary(b.seed, b.tiny)
	for i := range prim.cfgs {
		ck.check("repo entry point", i, prim.results[i], prim.errs[i])
	}
	var serialNS int64
	if b.w.serialTwin {
		debug.FreeOSMemory()
		t0 := clock()
		for i, c := range prim.cfgs {
			c.EngineShards = 0
			res, err := safeRun(c)
			ck.check("serial-engine twin", i, res, err)
		}
		serialNS = clock() - t0
	}
	mc := measureMicro()

	o := &outcome{}
	a := plain[0]
	var events, ops, verbs, slow, misses, adds, nodes int64
	var backlog int64
	var lockAcq, lockLocal, lockPass, lockReacq int64
	for _, r := range a.results {
		events += int64(r.Events)
		ops += r.Ops
		verbs += r.NIC.Verbs
		slow += r.NIC.Slowdowns
		misses += r.NIC.QPCMisses
		backlog = max(backlog, r.NIC.MaxBacklogNS)
		adds += histAdds(r)
		nodes += int64(r.Config.Nodes)
		lockAcq += r.Lock.Acquires
		lockLocal += r.Lock.LocalOps
		lockPass += r.Lock.Passes
		lockReacq += r.Lock.Reacquires
	}
	var cfgNS []float64
	for _, tm := range a.timings {
		cfgNS = append(cfgNS, secs(tm.totalNS()))
	}
	// Engine-run and sim.New time per pass, medians over passes.
	passSum := func(p assembledPass, f func(runTiming) int64) float64 {
		var ns int64
		for _, tm := range p.timings {
			ns += f(tm)
		}
		return secs(ns)
	}
	runOf := func(tm runTiming) int64 { return tm.runEnd - tm.setupEnd }
	var runNS, memNS []float64
	for _, p := range plain {
		runNS = append(runNS, passSum(p, runOf))
		memNS = append(memNS, passSum(p, func(tm runTiming) int64 { return tm.memNS }))
	}
	// Self times come from the traced pass with the median engine-run
	// time, so that the layers add up to that pass's run time exactly.
	sort.Slice(traced, func(i, j int) bool { return passSum(traced[i], runOf) < passSum(traced[j], runOf) })
	t := traced[(len(traced)-1)/2]
	tracedRun := passSum(t, runOf)
	ls := t.log.layerSelf()
	self := func(layer string) float64 { return secs(ls[layer]) }
	var acquires, gapsSeen, gapsHidden int64
	for _, rt := range t.traces {
		if rt != nil {
			acquires += rt.opN[opAcquire]
			gapsSeen += rt.gapsSeen
			gapsHidden += rt.gapsHidden
		}
	}
	var plainWall, tracedWall []float64
	for i := range plain {
		plainWall = append(plainWall, secs(plain[i].wallNS))
		tracedWall = append(tracedWall, secs(traced[i].wallNS))
	}

	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	simSelf := self("engine run")
	o.set("sim.events", float64(events), "count")
	o.set("sim.events_per_op", ratio(float64(events), float64(ops)), "events/op")
	o.set("sim.events_per_s", ratio(float64(events), median(runNS)), "1/s")
	o.set("sim.ns_per_event", mc.nsPerEvent, "ns")
	o.set("sim.allocs_per_event", ratio(a.allocs, float64(events)), "allocs/event")
	o.set("sim.self_s", simSelf, "s")
	windowSpeedup := 0.0
	if b.w.serialTwin {
		windowSpeedup = ratio(float64(serialNS), float64(prim.end-prim.start))
	}
	o.set("sim.window_speedup", windowSpeedup, "ratio")
	o.set("nic.verbs_per_op", ratio(float64(verbs), float64(ops)), "verbs/op")
	o.set("nic.slowdown_frac", ratio(float64(slow), float64(verbs)), "ratio")
	o.set("nic.qpc_miss_frac", ratio(float64(misses), float64(verbs)), "ratio")
	o.set("nic.max_backlog_us", float64(backlog)/1e3, "us")
	o.set("nic.submit_ns", mc.submitNS, "ns")
	o.set("mem.build_s", median(memNS), "s")
	o.set("locks.self_s", self("locks"), "s")
	o.set("locks.acquires", float64(acquires), "count")
	o.set("locks.fence_ns", mc.fenceNS, "ns")
	o.set("core.local_frac", ratio(float64(lockLocal), float64(lockAcq)), "ratio")
	o.set("core.pass_frac", ratio(float64(lockPass), float64(lockAcq)), "ratio")
	o.set("core.reacquire_frac", ratio(float64(lockReacq), float64(lockAcq)), "ratio")
	o.set("workload.self_s", self("workload"), "s")
	o.set("workload.ops", float64(ops), "count")
	clusterMetrics(o, a.results, self("cluster"))
	o.set("harness.run_s_p50", median(cfgNS), "s")
	o.set("harness.run_s_max", maxOf(cfgNS), "s")
	o.set("sweep.idle_frac", idleFrac(prim.start, prim.end, prim.completions, prim.workers), "ratio")
	o.set("stats.hist_add_ns", mc.histAddNS, "ns")
	o.set("report.render_s", secs(prim.renderNS), "s")
	o.set("gc.cpu_frac", a.gcFrac, "ratio")
	o.set("gc.heap_peak_mb", heapPeak, "MiB")
	o.set("gc.allocs_per_op", ratio(a.allocs, float64(ops)), "allocs/op")
	o.set("trace.overhead_frac", ratio(median(tracedWall), median(plainWall))-1, "ratio")
	o.set("trace.hidden_gap_frac", ratio(float64(gapsHidden), float64(gapsSeen+gapsHidden)), "ratio")

	// The micro costs times this run's exact counts: a second estimate of
	// each layer's share, reported beside the traced one, not reconciled.
	est := map[string]float64{
		"est.sim_s":   float64(events) * mc.nsPerEvent / 1e9,
		"est.nic_s":   float64(verbs) * mc.submitNS / 1e9,
		"est.fence_s": float64(acquires) * mc.fenceNS / 1e9,
		"est.hist_s":  float64(adds) * mc.histAddNS / 1e9,
		"est.mem_s":   float64(nodes) * mc.newPerNodeS,
	}
	for _, k := range []string{"est.sim_s", "est.nic_s", "est.fence_s", "est.hist_s", "est.mem_s"} {
		o.set(k, est[k], "s")
	}
	for _, d := range []struct {
		what     string
		est, got float64
	}{
		{"engine: events x micro ns/event vs traced sim self time", est["est.sim_s"], simSelf},
		{"memory: nodes x micro sim.New vs timed sim.New", est["est.mem_s"], median(memNS)},
	} {
		if r := ratio(d.est, d.got); r < 0.8 || r > 1.25 {
			o.notes = append(o.notes, fmt.Sprintf("disagree: %s: %.4fs vs %.4fs (x%.2f)", d.what, d.est, d.got, r))
		}
	}
	sumSelf := simSelf + self("locks") + self("workload") + self("cluster")
	o.notes = append(o.notes, fmt.Sprintf(
		"traced engine-run time %.4fs = sim %.4fs + locks %.4fs + workload %.4fs + cluster %.4fs (sum %.4fs); tracing overhead %.1f%%",
		tracedRun, simSelf, self("locks"), self("workload"), self("cluster"), sumSelf,
		100*(ratio(median(tracedWall), median(plainWall))-1)))

	path := filepath.Join(b.outDir, fmt.Sprintf("trace-%s-seed%d.json", b.w.name, b.seed-1))
	if err := t.log.write(path, map[string]any{"workload": b.w.name, "seed": b.seed - 1}); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	o.notes = append(o.notes, "trace written to "+path)
	return o.finish(ck), nil
}

// clusterMetrics sets the service-layer metrics (zero for closed loops).
func clusterMetrics(o *outcome, rs []harness.Result, self float64) {
	var offered, shed int64
	var maxQ int
	var qw, aw, hold float64
	for _, r := range rs {
		if s := r.Svc; s != nil {
			offered += s.Offered
			shed += s.Shed
			maxQ = max(maxQ, s.MaxQueueLen)
			qw = max(qw, float64(s.QueueWait.P99NS)/1e3)
			aw = max(aw, float64(s.AcquireWait.P99NS)/1e3)
			hold = max(hold, float64(s.HoldTime.P99NS)/1e3)
		}
	}
	shedFrac := 0.0
	if offered > 0 {
		shedFrac = float64(shed) / float64(offered)
	}
	o.set("cluster.self_s", self, "s")
	o.set("cluster.offered", float64(offered), "count")
	o.set("cluster.shed_frac", shedFrac, "ratio")
	o.set("cluster.max_queue", float64(maxQ), "count")
	o.set("cluster.queue_wait_p99_us", qw, "us")
	o.set("cluster.acquire_wait_p99_us", aw, "us")
	o.set("cluster.hold_p99_us", hold, "us")
}

// histAdds counts the histogram samples a run recorded.
func histAdds(r harness.Result) int64 {
	n := r.Latency.Count + r.ReadLatency.Count + r.WriteLatency.Count + r.TimeoutLatency.Count +
		r.TxnRetryHist.Count + r.CommitLatency.Count
	if s := r.Svc; s != nil {
		n += s.QueueWait.Count + s.AcquireWait.Count + s.HoldTime.Count
	}
	return n
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
