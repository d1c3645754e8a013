package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"alock/internal/api"
	"alock/internal/locks"
	"alock/internal/mem"
	"alock/internal/ptr"
)

// epoch anchors every host-time reading of the process.
var epoch = time.Now() //lint:allow detrand benchmark harness: measuring real wall time is its job

// clock is host time in nanoseconds since the process started; it is the
// benchmark's only wall-clock read.
func clock() int64 {
	return int64(time.Since(epoch)) //lint:allow detrand benchmark harness: measuring real wall time is its job
}

// Layers whose own host time the traced run attributes. The engine (sim,
// and the nic and mem models it drives) is not listed: its self time is
// what is left of an engine run once every thread's own time is taken out.
const (
	layerWorkload = iota
	layerCluster
	layerLocks
	nLayers
)

var layerNames = [nLayers]string{"workload", "cluster", "locks"}

// Verb kinds: the api.Ctx calls that enter the engine. NodeID, ThreadID,
// Now, Stopped and Rand only read state and are forwarded untraced; their
// cost stays in the caller's own time.
const (
	vRead = iota
	vWrite
	vCAS
	vRRead
	vRWrite
	vRCAS
	vFence
	vPause
	vWork
	vAlloc
	vFree
	nVerbs
)

var verbNames = [nVerbs]string{"Read", "Write", "CAS", "RRead", "RWrite", "RCAS", "Fence", "Pause", "Work", "Alloc", "Free"}

const (
	opAcquire = iota
	opRelease
	nOps
)

var opNames = [nOps]string{"Acquire", "Release"}

// sampledOpsPerThread bounds how many individual operation spans one
// thread keeps per run for the trace viewer; every operation is still
// counted in the per-kind totals.
const sampledOpsPerThread = 16

// runTrace collects one traced engine run. Only the serial engine is
// traced: one simulated thread runs at a time and control passes between
// threads over channels, so the fields need no locking and, for each
// thread, host time from the return of one engine call to the entry of the
// next is that thread's own CPU time.
type runTrace struct {
	own [nLayers]int64
	// Service-thread gaps between lock operations: seen ones are charged
	// to the cluster layer, hidden ones (which contained an untraced engine
	// call) fall to the engine's self time.
	gapsSeen, gapsHidden int64
	verbN                [nVerbs]int64
	verbT                [nVerbs]int64
	opN                  [nOps]int64
	opT                  [nOps]int64
	ops                  []span // sampled operation spans (viewer only)
}

// threadTrace is one simulated thread's position in the trace.
type threadTrace struct {
	rt      *runTrace
	raw     api.Ctx
	ctx     *tracedCtx
	layer   int
	depth   int   // nesting of traced lock operations
	last    int64 // host time of the thread's last traced boundary
	callAt  int64 // entry time of the engine call in progress
	opAt    int64 // entry time of the outermost lock operation
	simAt   int64 // engine time at the last boundary (cluster threads)
	sampled int
}

func (rt *runTrace) newThread(raw api.Ctx, layer int) *threadTrace {
	t := &threadTrace{rt: rt, raw: raw, layer: layer, last: clock(), simAt: raw.Now()}
	t.ctx = &tracedCtx{Ctx: raw, t: t}
	return t
}

// charge gives the host time since the thread's last boundary to the layer
// it was running in.
func (t *threadTrace) charge(now int64) {
	if t.depth > 0 {
		t.rt.own[layerLocks] += now - t.last
	} else {
		t.rt.own[t.layer] += now - t.last
	}
	t.last = now
}

func (t *threadTrace) enter() {
	now := clock()
	t.charge(now)
	t.callAt = now
}

func (t *threadTrace) exit(kind int) {
	now := clock()
	t.rt.verbN[kind]++
	t.rt.verbT[kind] += now - t.callAt
	t.last = now
}

func (t *threadTrace) opEnter() {
	now := clock()
	switch {
	case t.depth == 0 && t.layer == layerCluster && t.raw.Now() != t.simAt:
		// The service called the engine through its own, untraced Ctx
		// since the last lock operation (an idle poll): the gap holds
		// engine and other threads' time as well as the service's own, so
		// it is not charged to the service.
		t.rt.gapsHidden++
		t.last = now
	case t.depth == 0 && t.layer == layerCluster:
		t.rt.gapsSeen++
		t.charge(now)
	default:
		t.charge(now)
	}
	if t.depth == 0 {
		t.opAt = now
	}
	t.depth++
}

func (t *threadTrace) opExit(kind int) {
	now := clock()
	t.charge(now)
	t.depth--
	if t.depth > 0 {
		return
	}
	t.rt.opN[kind]++
	t.rt.opT[kind] += now - t.opAt
	if t.sampled < sampledOpsPerThread {
		t.sampled++
		t.rt.ops = append(t.rt.ops, span{Name: opNames[kind], Start: t.opAt, End: now,
			TID: 100 + t.raw.ThreadID(), Sample: true})
	}
	t.simAt = t.raw.Now()
}

// finish charges the tail of a thread body the benchmark itself spawned.
func (t *threadTrace) finish() { t.charge(clock()) }

// tracedCtx wraps api.Ctx, the boundary from locks, core, workload and
// cluster into the engine (sim, nic, mem). Untraced methods are promoted
// from the embedded Ctx.
type tracedCtx struct {
	api.Ctx
	t *threadTrace
}

func (c *tracedCtx) Read(p ptr.Ptr) uint64 {
	c.t.enter()
	v := c.Ctx.Read(p)
	c.t.exit(vRead)
	return v
}

func (c *tracedCtx) Write(p ptr.Ptr, v uint64) {
	c.t.enter()
	c.Ctx.Write(p, v)
	c.t.exit(vWrite)
}

func (c *tracedCtx) CAS(p ptr.Ptr, old, new uint64) uint64 {
	c.t.enter()
	v := c.Ctx.CAS(p, old, new)
	c.t.exit(vCAS)
	return v
}

func (c *tracedCtx) RRead(p ptr.Ptr) uint64 {
	c.t.enter()
	v := c.Ctx.RRead(p)
	c.t.exit(vRRead)
	return v
}

func (c *tracedCtx) RWrite(p ptr.Ptr, v uint64) {
	c.t.enter()
	c.Ctx.RWrite(p, v)
	c.t.exit(vRWrite)
}

func (c *tracedCtx) RCAS(p ptr.Ptr, old, new uint64) uint64 {
	c.t.enter()
	v := c.Ctx.RCAS(p, old, new)
	c.t.exit(vRCAS)
	return v
}

func (c *tracedCtx) Fence() {
	c.t.enter()
	c.Ctx.Fence()
	c.t.exit(vFence)
}

func (c *tracedCtx) Pause(iter int) {
	c.t.enter()
	c.Ctx.Pause(iter)
	c.t.exit(vPause)
}

func (c *tracedCtx) Work(d time.Duration) {
	c.t.enter()
	c.Ctx.Work(d)
	c.t.exit(vWork)
}

func (c *tracedCtx) Alloc(words, align int) ptr.Ptr {
	c.t.enter()
	p := c.Ctx.Alloc(words, align)
	c.t.exit(vAlloc)
	return p
}

func (c *tracedCtx) Free(p ptr.Ptr) {
	c.t.enter()
	c.Ctx.Free(p)
	c.t.exit(vFree)
}

// tracedLocker wraps api.TokenLocker, the boundary from the workload into
// locks and core.
type tracedLocker struct {
	inner api.TokenLocker
	t     *threadTrace
}

func (l *tracedLocker) Acquire(p ptr.Ptr, mode api.Mode, opt api.AcquireOpts) (api.Guard, api.Outcome) {
	l.t.opEnter()
	g, out := l.inner.Acquire(p, mode, opt)
	l.t.opExit(opAcquire)
	return g, out
}

func (l *tracedLocker) Release(g api.Guard) api.ReleaseOutcome {
	l.t.opEnter()
	out := l.inner.Release(g)
	l.t.opExit(opRelease)
	return out
}

func (l *tracedLocker) Abandon(g api.Guard) {
	l.t.opEnter()
	l.inner.Abandon(g)
	l.t.opExit(opRelease)
}

// tracedHandle wraps the algorithm's locks.TimedHandle. For the service,
// whose workers build their own token handles, this is where lock
// operations begin and end; under a tracedLocker it nests and adds nothing.
type tracedHandle struct {
	inner locks.TimedHandle
	t     *threadTrace
}

func (h *tracedHandle) AcquireTimed(l ptr.Ptr, mode api.Mode, deadlineNS int64) (any, bool) {
	h.t.opEnter()
	st, ok := h.inner.AcquireTimed(l, mode, deadlineNS)
	h.t.opExit(opAcquire)
	return st, ok
}

func (h *tracedHandle) ReleaseAcq(l ptr.Ptr, mode api.Mode, st any) {
	h.t.opEnter()
	h.inner.ReleaseAcq(l, mode, st)
	h.t.opExit(opRelease)
}

// tracedProvider hands the algorithm traced Ctxs. The wrapper types below
// add exactly the optional interfaces the wrapped provider has, so
// locks.TokenHandleFor and the harness checks pick the same paths as for
// the bare provider.
type tracedProvider struct {
	inner locks.Provider
	rt    *runTrace
}

func (p *tracedProvider) Name() string { return p.inner.Name() }

func (p *tracedProvider) Prepare(s *mem.Space, l []ptr.Ptr) { p.inner.Prepare(s, l) }

func (p *tracedProvider) NewHandle(ctx api.Ctx) api.Locker {
	return p.inner.NewHandle(p.thread(ctx).ctx)
}

// thread returns the trace of the thread owning ctx: the one the benchmark
// registered for its own thread bodies, or a new service-layer one for a
// thread the cluster spawned.
func (p *tracedProvider) thread(ctx api.Ctx) *threadTrace {
	if tc, ok := ctx.(*tracedCtx); ok {
		return tc.t
	}
	return p.rt.newThread(ctx, layerCluster)
}

type tracedTimed struct {
	*tracedProvider
	timed locks.TimedProvider
}

func (p tracedTimed) NewTimedHandle(ctx api.Ctx) locks.TimedHandle {
	t := p.thread(ctx)
	return &tracedHandle{inner: p.timed.NewTimedHandle(t.ctx), t: t}
}

type tracedAbortable struct{ tracedTimed }

func (tracedAbortable) AbortableTimed() {}

type tracedTimedStats struct {
	tracedTimed
	locks.StatsAggregator
}

// wrapProvider returns the traced twin of p.
func wrapProvider(p locks.Provider, rt *runTrace) (locks.Provider, error) {
	tp, timed := p.(locks.TimedProvider)
	_, abortable := p.(locks.AbortableTimedProvider)
	agg, hasStats := p.(locks.StatsAggregator)
	if !timed {
		return nil, fmt.Errorf("trace: provider %q has no timed path; only timed providers are traced", p.Name())
	}
	base := tracedTimed{tracedProvider: &tracedProvider{inner: p, rt: rt}, timed: tp}
	switch {
	case abortable && !hasStats:
		return tracedAbortable{base}, nil
	case !abortable && hasStats:
		return tracedTimedStats{base, agg}, nil
	case !abortable && !hasStats:
		return base, nil
	}
	return nil, fmt.Errorf("trace: provider %q mixes abortable timing with stats, which the tracer does not forward", p.Name())
}

// span is one traced interval of host time. Sample spans are a bounded
// sample of operations for the viewer; their time is already in the layer
// totals, so self-time arithmetic skips them.
type span struct {
	ID, Parent int
	Name       string
	Start, End int64
	TID        int
	Sample     bool
	Args       map[string]any
}

// selfTimes returns each span's duration minus the part of it that its
// non-sample children cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if !s.Sample && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Sample {
			continue
		}
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// traceLog is the span list of one traced workload pass.
type traceLog struct {
	spans []span
}

func (l *traceLog) add(s span) int {
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// addRun records one traced engine run under parent: the run span, one
// span per layer holding that layer's own time inside the run, and the
// sampled operations. The layer spans are laid end to end from the run's
// start because only their totals are known; in the viewer they show
// shares, not positions.
func (l *traceLog) addRun(parent int, start, end int64, rt *runTrace) {
	verbs := map[string]any{}
	for k := range verbNames {
		if rt.verbN[k] > 0 {
			verbs[verbNames[k]] = map[string]int64{"count": rt.verbN[k], "ns": rt.verbT[k]}
		}
	}
	ops := map[string]any{}
	for k := range opNames {
		ops[opNames[k]] = map[string]int64{"count": rt.opN[k], "ns": rt.opT[k]}
	}
	run := l.add(span{Parent: parent, Name: "engine run", Start: start, End: end,
		Args: map[string]any{"verbs": verbs, "operations": ops,
			"service_gaps": map[string]int64{"seen": rt.gapsSeen, "hidden": rt.gapsHidden}}})
	at := start
	for k, ns := range rt.own {
		if ns > 0 {
			l.add(span{Parent: run, Name: layerNames[k], Start: at, End: at + ns, TID: 1})
			at += ns
		}
	}
	for _, s := range rt.ops {
		s.Parent = run
		l.add(s)
	}
}

// layerSelf sums self time by span name.
func (l *traceLog) layerSelf() map[string]int64 {
	self := selfTimes(l.spans)
	out := map[string]int64{}
	for _, s := range l.spans {
		if !s.Sample {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}

// write stores the spans as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open.
func (l *traceLog) write(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		evs = append(evs, event{Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: s.TID, Args: args})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "metadata": meta})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
