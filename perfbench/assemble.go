package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"alock/internal/api"
	"alock/internal/cluster"
	"alock/internal/core"
	"alock/internal/harness"
	"alock/internal/locks"
	"alock/internal/locktable"
	"alock/internal/model"
	"alock/internal/sim"
	"alock/internal/stats"
	"alock/internal/workload"
)

// assembly is one run built the way harness.Run builds it, from the
// layers' public functions, so the benchmark can time the set-up apart from
// the engine run and, when traced, hand the algorithm wrapped interfaces.
// Transactions (TxnLocks >= 2) are not assembled: no workload uses them.
type assembly struct {
	cfg     harness.Config
	e       *sim.Engine
	prov    locks.Provider // as handed to the algorithm (wrapped when traced)
	threads []workload.ThreadResult
	cl      *cluster.Cluster
	place   string    // the service's placement name
	rt      *runTrace // nil when untraced

	start, memNS, setupEnd int64
}

// withDefaults mirrors harness.Config's defaulting, so Result.Config (and
// with it the digest) matches harness.Run's.
func withDefaults(c harness.Config) harness.Config {
	if c.Model == (model.Params{}) {
		c.Model = model.CX3()
	}
	if c.WarmupNS == 0 {
		c.WarmupNS = 400_000
	}
	if c.MeasureNS == 0 {
		c.MeasureNS = 4_000_000
	}
	if c.WordsPerNode == 0 {
		c.WordsPerNode = 1 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.OpenLoop() {
		if c.Clients == 0 {
			c.Clients = 1_000_000
		}
		if c.SvcShards == 0 {
			c.SvcShards = c.Nodes
		}
		if c.SvcQueueCap == 0 {
			c.SvcQueueCap = 64
		}
	}
	return c
}

// assemble performs everything before a run's first simulated event:
// defaults and Validate, the provider, the engine with its memory regions,
// the lock table, Prepare, and the thread spawns (or cluster.Install).
// A non-nil rt traces the run; it must then run on the serial engine.
func assemble(cfg harness.Config, rt *runTrace) (*assembly, error) {
	a := &assembly{start: clock(), rt: rt}
	cfg = withDefaults(cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.TxnLocks >= 2 {
		return nil, fmt.Errorf("assemble: transactions are not assembled by the benchmark")
	}
	if rt != nil && (cfg.EngineShards > 0 || cfg.Oracle) {
		return nil, fmt.Errorf("assemble: traced runs need the serial engine")
	}
	a.cfg = cfg
	threads := cfg.Nodes * cfg.ThreadsPerNode
	if cfg.OpenLoop() {
		threads = cfg.SvcShards * cfg.ThreadsPerNode
	}
	prov, err := locks.ByName(cfg.Algorithm, locks.Options{
		ALockConfig: core.Config{LocalBudget: cfg.LocalBudget, RemoteBudget: cfg.RemoteBudget},
		RW:          locks.RWConfig{ReadBudget: cfg.ReadBudget, WriteBudget: cfg.WriteBudget},
		Threads:     threads,
		Timed:       cfg.AcquireTimeout > 0,
	})
	if err != nil {
		return nil, err
	}
	if rt != nil {
		if prov, err = wrapProvider(prov, rt); err != nil {
			return nil, err
		}
	}
	a.prov = prov

	var opts []sim.Option
	if cfg.Oracle {
		opts = append(opts, sim.WithOracle())
	}
	if cfg.EngineShards > 0 {
		workers := cfg.EngineShards
		if !cfg.OpenLoop() && workers > 1 && cfg.TargetOps > 0 {
			workers = 1 // harness.Run's degrade: the op countdown is engine-serialized
		}
		opts = append(opts, sim.WithShards(workers))
	}
	t0 := clock()
	a.e = sim.New(cfg.Nodes, cfg.WordsPerNode, cfg.Model, cfg.Seed, opts...)
	a.memNS = clock() - t0
	layout := locktable.RoundRobinHome
	if cfg.HomeSkewPct > 0 {
		layout = locktable.SkewedHome(0, cfg.HomeSkewPct)
	}
	table := locktable.NewWithLayout(a.e.Space(), cfg.Locks, layout)
	prov.Prepare(a.e.Space(), table.All())
	ft := locks.NewFenceTable()
	if cfg.OpenLoop() {
		err = a.installService(table, prov, ft)
	} else {
		err = a.spawnClosedLoop(table, prov, ft)
	}
	if err != nil {
		return nil, err
	}
	a.setupEnd = clock()
	return a, nil
}

func (a *assembly) spawnClosedLoop(table *locktable.Table, prov locks.Provider, ft *locks.FenceTable) error {
	cfg := a.cfg
	spec := workload.Spec{
		LocalityPct:      cfg.LocalityPct,
		CSWork:           cfg.CSWork,
		Think:            cfg.Think,
		WarmupNS:         cfg.WarmupNS,
		ZipfS:            cfg.ZipfS,
		BurstOnNS:        cfg.BurstOn.Nanoseconds(),
		BurstOffNS:       cfg.BurstOff.Nanoseconds(),
		ReadPct:          cfg.ReadPct,
		LeaseProb:        cfg.LeaseProb,
		LeaseHoldNS:      cfg.LeaseHold.Nanoseconds(),
		AcquireTimeoutNS: cfg.AcquireTimeout.Nanoseconds(),
		AbandonProb:      cfg.AbandonProb,
		AbandonHoldNS:    cfg.AbandonHold.Nanoseconds(),
		PairProb:         cfg.PairProb,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	var opsDone int64
	var opsPtr *int64
	if cfg.TargetOps > 0 {
		opsPtr = &opsDone
	}
	a.threads = make([]workload.ThreadResult, cfg.Nodes*cfg.ThreadsPerNode)
	for slot := range a.threads {
		slot := slot
		a.e.Spawn(slot/cfg.ThreadsPerNode, func(ctx api.Ctx) {
			if a.rt == nil {
				h := locks.TokenHandleFor(prov, ctx, ft)
				a.threads[slot] = workload.RunEnv(ctx, h, table, spec, workload.Env{}, opsPtr, cfg.TargetOps, a.e)
				return
			}
			t := a.rt.newThread(ctx, layerWorkload)
			h := &tracedLocker{inner: locks.TokenHandleFor(prov, t.ctx, ft), t: t}
			a.threads[slot] = workload.RunEnv(t.ctx, h, table, spec, workload.Env{}, opsPtr, cfg.TargetOps, a.e)
			t.finish()
		})
	}
	return nil
}

func (a *assembly) installService(table *locktable.Table, prov locks.Provider, ft *locks.FenceTable) error {
	cfg := a.cfg
	place, err := cluster.NewPlacement(cfg.SvcPlacement, cfg.SvcShards, table)
	if err != nil {
		return err
	}
	weights := cluster.KeyWeights(cfg.Locks, cfg.ZipfS)
	if cfg.SvcRebalance {
		place = cluster.RebalanceHotKeys(place, weights, cfg.SvcShards)
	}
	policy, err := cluster.ParsePolicy(cfg.SvcAdmission)
	if err != nil {
		return err
	}
	a.place = place.Name()
	a.cl, err = cluster.Install(a.e, table, prov, ft, place, weights, cluster.Spec{
		Shards:          cfg.SvcShards,
		WorkersPerShard: cfg.ThreadsPerNode,
		Clients:         cfg.Clients,
		RateOPS:         cfg.ArrivalRate,
		QueueCap:        cfg.SvcQueueCap,
		Policy:          policy,
		ReadPct:         cfg.ReadPct,
		CSWorkNS:        cfg.CSWork.Nanoseconds(),
		TimeoutNS:       cfg.AcquireTimeout.Nanoseconds(),
		WarmupNS:        cfg.WarmupNS,
		BurstOnNS:       cfg.BurstOn.Nanoseconds(),
		BurstOffNS:      cfg.BurstOff.Nanoseconds(),
	})
	return err
}

// runTiming is where one assembled run spent its host time.
type runTiming struct {
	start, setupEnd, runEnd, end int64
	memNS                        int64
}

func (t runTiming) totalNS() int64 { return t.end - t.start }

// run executes the engine and aggregates the Result exactly as harness.Run
// does. A panic in the engine or a simulated thread is returned as an error.
func (a *assembly) run() (res harness.Result, tm runTiming, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run panicked: %v", p)
		}
	}()
	tm = runTiming{start: a.start, setupEnd: a.setupEnd, memNS: a.memNS}
	a.e.Run(a.cfg.WarmupNS + a.cfg.MeasureNS)
	tm.runEnd = clock()
	if a.cl != nil {
		res, err = a.serviceResult()
	} else {
		res = a.closedResult()
	}
	tm.end = clock()
	return res, tm, err
}

func (a *assembly) closedResult() harness.Result {
	cfg := a.cfg
	res := harness.Result{Config: cfg, Events: a.e.Events()}
	var hist, readHist, writeHist, timeoutHist, retryHist, commitHist stats.Hist
	var firstRec, lastRec int64
	for i := range a.threads {
		r := &a.threads[i]
		res.Ops += r.Ops
		res.ReadOps += r.ReadOps
		res.WriteOps += r.WriteOps
		res.Timeouts += r.Timeouts
		res.Abandons += r.Abandons
		res.FencedReleases += r.FencedReleases
		res.LateAcquires += r.LateAcquires
		res.PairOps += r.PairOps
		res.TxnCommits += r.TxnCommits
		res.TxnAborts += r.TxnAborts
		res.TxnRetries += r.TxnRetries
		hist.Merge(&r.Latency)
		readHist.Merge(&r.ReadLatency)
		writeHist.Merge(&r.WriteLatency)
		timeoutHist.Merge(&r.TimeoutLatency)
		retryHist.Merge(&r.TxnRetryHist)
		commitHist.Merge(&r.CommitLatency)
		if r.Ops > 0 {
			if firstRec == 0 || r.FirstRecNS < firstRec {
				firstRec = r.FirstRecNS
			}
			lastRec = max(lastRec, r.LastRecNS)
		}
	}
	res.SpanNS = recordedSpan(firstRec, lastRec, cfg.WarmupNS, cfg.TargetOps > 0 && res.Ops >= cfg.TargetOps)
	if res.Ops > 0 {
		res.Throughput = float64(res.Ops) / (float64(res.SpanNS) / 1e9)
	}
	res.Latency = hist.Summarize()
	res.ReadLatency = readHist.Summarize()
	res.WriteLatency = writeHist.Summarize()
	res.TimeoutLatency = timeoutHist.Summarize()
	res.TxnRetryHist = retryHist.Summarize()
	res.CommitLatency = commitHist.Summarize()
	res.CDF = hist.CDF()
	a.fabricAndLock(&res)
	return res
}

func (a *assembly) serviceResult() (harness.Result, error) {
	cfg := a.cfg
	m := a.cl.Metrics()
	if m.Offered != m.Served+m.Shed {
		return harness.Result{}, fmt.Errorf("service conservation violated: offered %d != served %d + shed %d",
			m.Offered, m.Served, m.Shed)
	}
	res := harness.Result{Config: cfg, Events: a.e.Events()}
	res.Ops = m.RecServed
	res.ReadOps = m.RecReads
	res.WriteOps = m.RecWrites
	res.Timeouts = m.RecTimeouts
	res.SpanNS = recordedSpan(m.FirstRecNS, m.LastRecNS, cfg.WarmupNS, false)
	if res.Ops > 0 {
		res.Throughput = float64(res.Ops) / (float64(res.SpanNS) / 1e9)
	}
	res.Latency = m.E2E.Summarize()
	res.ReadLatency = m.ReadE2E.Summarize()
	res.WriteLatency = m.WriteE2E.Summarize()
	res.CDF = m.E2E.CDF()
	a.fabricAndLock(&res)
	policy, err := cluster.ParsePolicy(cfg.SvcAdmission)
	if err != nil {
		return harness.Result{}, err
	}
	res.Svc = &harness.SvcStats{
		Shards: cfg.SvcShards, Placement: a.place, Policy: policy.String(),
		QueueCap: cfg.SvcQueueCap, Clients: cfg.Clients,
		Offered: m.RecOffered, Served: m.RecServed, Shed: m.RecShed, Timeouts: m.RecTimeouts,
		TotalOffered: m.Offered, TotalServed: m.Served, TotalShed: m.Shed,
		OfferedOPS:  float64(m.RecOffered) / (float64(cfg.MeasureNS) / 1e9),
		GoodputOPS:  res.Throughput,
		MaxQueueLen: m.MaxQueueLen,
		ShardServed: m.ShardServed,
		QueueWait:   m.QueueWait.Summarize(),
		AcquireWait: m.AcquireWait.Summarize(),
		HoldTime:    m.Hold.Summarize(),
	}
	return res, nil
}

func (a *assembly) fabricAndLock(res *harness.Result) {
	for n := 0; n < a.cfg.Nodes; n++ {
		st := a.e.NIC(n).Stats()
		res.NIC.Verbs += st.Verbs
		res.NIC.QPCMisses += st.QPCMisses
		res.NIC.Slowdowns += st.Slowdowns
		res.NIC.DistinctQPs += st.DistinctQPs
		res.NIC.MaxBacklogNS = max(res.NIC.MaxBacklogNS, st.MaxBacklogNS)
	}
	if agg, ok := a.prov.(locks.StatsAggregator); ok {
		res.Lock = agg.AggregateStats()
	}
}

// recordedSpan mirrors harness's choice of the span throughput is computed
// over: from the warmup boundary for full-window runs, first to last
// recorded completion for runs TargetOps cut short.
func recordedSpan(firstRec, lastRec, warmupNS int64, cutShort bool) int64 {
	span := lastRec - warmupNS
	if cutShort && firstRec > 0 {
		span = lastRec - firstRec
	}
	return max(span, 1)
}

// digest is the run's output fingerprint: a hash of the canonical Result
// JSON with the engine knobs zeroed, so the same simulation on the serial
// and the windowed engine, traced or not, digests the same.
func digest(r harness.Result) (string, error) {
	r.Config.EngineShards = 0
	r.Config.Oracle = false
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
