package sim

import (
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/ptr"
)

func TestSingleThreadTiming(t *testing.T) {
	p := model.Uniform(10)
	e := New(1, 1024, p, 1)
	var times []int64
	e.Spawn(0, func(ctx api.Ctx) {
		w := ctx.Alloc(1, 1)
		times = append(times, ctx.Now())
		ctx.Write(w, 7) // +10ns
		times = append(times, ctx.Now())
		if got := ctx.Read(w); got != 7 { // +10ns
			t.Errorf("Read = %d, want 7", got)
		}
		times = append(times, ctx.Now())
	})
	e.Run(1 << 40)
	want := []int64{0, 10, 20}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %d, want %d", i, times[i], want[i])
		}
	}
}

func TestLocalOpsEffects(t *testing.T) {
	p := model.Uniform(5)
	e := New(2, 1024, p, 1)
	w := e.Space().AllocLine(1)
	e.Spawn(1, func(ctx api.Ctx) {
		if prev := ctx.CAS(w, 0, 42); prev != 0 {
			t.Errorf("CAS on zero word returned %d", prev)
		}
		if prev := ctx.CAS(w, 0, 99); prev != 42 {
			t.Errorf("failed CAS returned %d, want 42", prev)
		}
		if got := ctx.Read(w); got != 42 {
			t.Errorf("Read = %d, want 42 (failed CAS must not write)", got)
		}
	})
	e.Run(1 << 40)
}

func TestRemoteOpsEffects(t *testing.T) {
	p := model.Uniform(5)
	e := New(2, 1024, p, 1)
	w := e.Space().AllocLine(1)
	e.Spawn(0, func(ctx api.Ctx) { // node 0 accessing node 1: genuinely remote
		ctx.RWrite(w, 11)
		if got := ctx.RRead(w); got != 11 {
			t.Errorf("RRead = %d, want 11", got)
		}
		if prev := ctx.RCAS(w, 11, 22); prev != 11 {
			t.Errorf("RCAS returned %d, want 11", prev)
		}
		if got := ctx.RRead(w); got != 22 {
			t.Errorf("RRead after RCAS = %d, want 22", got)
		}
	})
	e.Run(1 << 40)
}

func TestRemoteSlowerThanLocal(t *testing.T) {
	p := model.CX3()
	e := New(2, 1024, p, 1)
	w0 := e.Space().AllocLine(0)
	w1 := e.Space().AllocLine(1)
	var localNS, remoteNS int64
	e.Spawn(0, func(ctx api.Ctx) {
		t0 := ctx.Now()
		ctx.Read(w0)
		localNS = ctx.Now() - t0
		t1 := ctx.Now()
		ctx.RRead(w1)
		remoteNS = ctx.Now() - t1
	})
	e.Run(1 << 40)
	if remoteNS < 10*localNS {
		t.Fatalf("remote read %dns not >=10x local read %dns", remoteNS, localNS)
	}
}

func TestLoopbackCheaperThanRemoteButNotLocal(t *testing.T) {
	p := model.CX3()
	e := New(2, 1024, p, 1)
	w0 := e.Space().AllocLine(0)
	w1 := e.Space().AllocLine(1)
	var loopNS, remoteNS, localNS int64
	e.Spawn(0, func(ctx api.Ctx) {
		t0 := ctx.Now()
		ctx.RRead(w0) // own node via RDMA = loopback
		loopNS = ctx.Now() - t0
		t1 := ctx.Now()
		ctx.RRead(w1)
		remoteNS = ctx.Now() - t1
		t2 := ctx.Now()
		ctx.Read(w0)
		localNS = ctx.Now() - t2
	})
	e.Run(1 << 40)
	if !(loopNS < remoteNS) {
		t.Errorf("loopback (%d) should be cheaper than remote (%d)", loopNS, remoteNS)
	}
	if !(loopNS > 10*localNS) {
		t.Errorf("loopback (%d) should be far slower than local (%d)", loopNS, localNS)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		p := model.CX3()
		e := New(4, 4096, p, 42)
		w := e.Space().AllocLine(0)
		results := make([]int64, 8)
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn(i%4, func(ctx api.Ctx) {
				for k := 0; k < 50; k++ {
					if ctx.Rand().Intn(2) == 0 {
						ctx.RCAS(w, 0, uint64(ctx.ThreadID()))
						ctx.RWrite(w, 0)
					} else {
						ctx.Work(time.Duration(ctx.Rand().Intn(100)) * time.Nanosecond)
					}
				}
				results[i] = ctx.Now()
			})
		}
		e.Run(1 << 40)
		return results
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: run1[%d]=%d run2[%d]=%d", i, a[i], i, b[i])
		}
	}
}

func TestInterleavingTwoThreads(t *testing.T) {
	// Two threads increment a word via read-modify-write cycles made of
	// separate ops; the engine must interleave them at op granularity.
	p := model.Uniform(10)
	e := New(1, 1024, p, 1)
	w := e.Space().AllocLine(0)
	for i := 0; i < 2; i++ {
		e.Spawn(0, func(ctx api.Ctx) {
			for k := 0; k < 100; k++ {
				for {
					old := ctx.Read(w)
					if ctx.CAS(w, old, old+1) == old {
						break
					}
				}
			}
		})
	}
	e.Run(1 << 40)
	var final uint64
	e.Spawn(0, func(ctx api.Ctx) { final = ctx.Read(w) })
	// Run again with remaining thread.
	e.Run(1 << 41)
	if final != 200 {
		t.Fatalf("final counter = %d, want 200", final)
	}
}

func TestStoppedFlag(t *testing.T) {
	p := model.Uniform(10)
	e := New(1, 1024, p, 1)
	var iters int
	e.Spawn(0, func(ctx api.Ctx) {
		for !ctx.Stopped() {
			ctx.Work(100 * time.Nanosecond)
			iters++
		}
	})
	e.Run(10_000)
	if iters < 90 || iters > 110 {
		t.Fatalf("iterations before stop = %d, want ~100", iters)
	}
}

func TestRequestStopSurvivesSetHorizon(t *testing.T) {
	// Regression: re-arming the horizon used to recompute e.stopped from
	// the clock alone, silently un-stopping a run whose harness had called
	// RequestStop. An explicit stop must be sticky across re-arms, which
	// every Run performs.
	p := model.Uniform(10)
	e := New(1, 1024, p, 1)
	var iters int
	e.Spawn(0, func(ctx api.Ctx) {
		for !ctx.Stopped() {
			ctx.Work(100 * time.Nanosecond)
			if iters++; iters == 50 {
				e.RequestStop() // harness-style early stop mid-run
			}
		}
	})
	e.Run(1 << 40)
	if iters != 50 {
		t.Fatalf("RequestStop did not cut the run short: %d iterations", iters)
	}
	if !e.Stopped() {
		t.Fatal("RequestStop did not stop the engine")
	}
	var extra int
	e.Spawn(0, func(ctx api.Ctx) {
		for !ctx.Stopped() {
			ctx.Work(100 * time.Nanosecond)
			extra++
		}
	})
	e.Run(1 << 41) // re-arm further out: must NOT un-stop the run
	if !e.Stopped() {
		t.Fatal("a later Run after RequestStop un-stopped the engine")
	}
	if extra != 0 {
		t.Fatalf("thread ran %d iterations after a sticky stop", extra)
	}
}

func TestSetHorizonRearmsWithoutRequestStop(t *testing.T) {
	// The flip side of the sticky-stop contract: with no explicit stop,
	// a later Run with a horizon past the clock un-stops the engine.
	e := New(1, 1024, model.Uniform(10), 1)
	e.Spawn(0, func(ctx api.Ctx) { ctx.Work(100 * time.Nanosecond) })
	e.Run(5)
	if !e.Stopped() {
		t.Fatal("run past horizon not stopped")
	}
	stoppedAtStart := true
	e.Spawn(0, func(ctx api.Ctx) { stoppedAtStart = ctx.Stopped() })
	e.Run(1 << 40)
	if stoppedAtStart {
		t.Fatal("extending the horizon did not re-arm a horizon-only stop")
	}
	if e.Stopped() {
		t.Fatal("engine stopped before reaching the re-armed horizon")
	}
}

func TestTornRCASAllowsLocalInterleave(t *testing.T) {
	// A local write lands inside the torn window of a remote CAS: the CAS
	// "succeeds" based on its stale read and clobbers the local write —
	// the Table 1 hazard.
	p := model.Uniform(10)
	p.TornRCAS = true
	p.TornGapNS = 1000
	e := New(2, 1024, p, 1)
	w := e.Space().AllocLine(0)
	var clobbered bool
	e.Spawn(1, func(ctx api.Ctx) { // remote thread
		prev := ctx.RCAS(w, 0, 500)
		if prev != 0 {
			t.Errorf("remote CAS saw %d, expected stale 0", prev)
		}
	})
	e.Spawn(0, func(ctx api.Ctx) { // local thread on w's node
		ctx.Work(35 * time.Nanosecond) // land inside the torn window
		ctx.Write(w, 7)
		ctx.Work(3 * time.Microsecond)
		if ctx.Read(w) == 500 {
			clobbered = true
		}
	})
	e.Run(1 << 40)
	if !clobbered {
		t.Fatal("torn RCAS did not clobber the interleaved local write")
	}
}

func TestTornRCASRemoteRemoteStillAtomic(t *testing.T) {
	// Two remote threads CAS-increment a word concurrently; remote RMWs
	// serialize at the responder even in torn mode, so no increment is
	// ever lost.
	p := model.Uniform(10)
	p.TornRCAS = true
	p.TornGapNS = 500
	e := New(3, 1024, p, 7)
	w := e.Space().AllocLine(0)
	const per = 50
	for i := 1; i <= 2; i++ {
		e.Spawn(i, func(ctx api.Ctx) {
			for k := 0; k < per; k++ {
				for {
					old := ctx.RRead(w)
					if ctx.RCAS(w, old, old+1) == old {
						break
					}
				}
			}
		})
	}
	e.Run(1 << 40)
	var final uint64
	e.Spawn(0, func(ctx api.Ctx) { final = ctx.Read(w) })
	e.Run(1 << 41)
	if final != 2*per {
		t.Fatalf("lost updates: counter = %d, want %d", final, 2*per)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	p := model.Uniform(10)
	e := New(1, 1024, p, 1, WithMaxEvents(100))
	e.Spawn(0, func(ctx api.Ctx) {
		for { // spin forever
			ctx.Pause(1)
		}
	})
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation did not panic")
		}
	}()
	e.Run(1 << 40)
}

func TestPauseBackoffBounded(t *testing.T) {
	p := model.CX3()
	e := New(1, 1024, p, 1)
	e.Spawn(0, func(ctx api.Ctx) {
		t0 := ctx.Now()
		ctx.Pause(0)
		first := ctx.Now() - t0
		if first != p.SpinPollMinNS {
			t.Errorf("Pause(0) = %dns, want %d", first, p.SpinPollMinNS)
		}
		t1 := ctx.Now()
		ctx.Pause(1000)
		big := ctx.Now() - t1
		if big != p.SpinPollMaxNS {
			t.Errorf("Pause(1000) = %dns, want cap %d", big, p.SpinPollMaxNS)
		}
	})
	e.Run(1 << 40)
}

func TestNICCongestionVisibleThroughEngine(t *testing.T) {
	// Many threads hammering loopback verbs on one node must drive the
	// NIC into its slowdown regime.
	p := model.CX3()
	e := New(1, 1<<14, p, 3)
	w := e.Space().AllocLine(0)
	for i := 0; i < 12; i++ {
		e.Spawn(0, func(ctx api.Ctx) {
			for !ctx.Stopped() {
				ctx.RRead(w)
			}
		})
	}
	e.Run(2_000_000) // 2ms virtual
	if e.NIC(0).Stats().Slowdowns == 0 {
		t.Fatal("expected loopback congestion slowdowns, saw none")
	}
}

func TestSpawnBadNodePanics(t *testing.T) {
	e := New(2, 64, model.Uniform(1), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn on invalid node did not panic")
		}
	}()
	e.Spawn(2, func(api.Ctx) {})
}

func TestAllocOnOwnNode(t *testing.T) {
	e := New(3, 1024, model.Uniform(1), 1)
	e.Spawn(2, func(ctx api.Ctx) {
		p := ctx.Alloc(8, 8)
		if p.NodeID() != 2 {
			t.Errorf("Alloc landed on node %d, want 2", p.NodeID())
		}
		ctx.Free(p)
	})
	e.Run(1 << 40)
}

func TestClassifyMatchesPointer(t *testing.T) {
	if api.Classify(1, ptr.Pack(1, 64)) != api.CohortLocal {
		t.Error("same-node access must classify local")
	}
	if api.Classify(0, ptr.Pack(1, 64)) != api.CohortRemote {
		t.Error("cross-node access must classify remote")
	}
}

func TestVerbJitterInjectsDelay(t *testing.T) {
	base := model.Uniform(10)
	run := func(p model.Params) int64 {
		e := New(2, 1024, p, 9)
		w := e.Space().AllocLine(1)
		var total int64
		e.Spawn(0, func(ctx api.Ctx) {
			t0 := ctx.Now()
			for i := 0; i < 200; i++ {
				ctx.RRead(w)
			}
			total = ctx.Now() - t0
		})
		e.Run(1 << 62)
		return total
	}
	clean := run(base)
	jit := base
	jit.JitterProb = 0.2
	jit.JitterNS = 5000
	jittered := run(jit)
	// ~40 of 200 verbs pick up 5us: expect at least 100us extra.
	if jittered < clean+100_000 {
		t.Fatalf("jitter not applied: clean=%dns jittered=%dns", clean, jittered)
	}
}

func TestPartitionedRNGStreams(t *testing.T) {
	p := NewPartitionedRNG(7)
	// Same key: identical sequences.
	a, b := p.Stream(SubsystemThread, 3), p.Stream(SubsystemThread, 3)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same key produced different streams")
		}
	}
	// Distinct keys (across subsystem or index or seed) must not collide.
	seeds := map[int64]string{}
	for _, tc := range []struct {
		name string
		seed int64
		sub  Subsystem
		idx  int
	}{
		{"t0", 7, SubsystemThread, 0},
		{"t1", 7, SubsystemThread, 1},
		{"f0", 7, SubsystemFabric, 0},
		{"f1", 7, SubsystemFabric, 1},
		{"s2-t0", 8, SubsystemThread, 0},
	} {
		s := NewPartitionedRNG(tc.seed).SeedFor(tc.sub, tc.idx)
		if prev, dup := seeds[s]; dup {
			t.Fatalf("seed collision between %s and %s", prev, tc.name)
		}
		seeds[s] = tc.name
	}
}

func TestVerbJitterDeterministic(t *testing.T) {
	p := model.Uniform(10)
	p.JitterProb = 0.3
	p.JitterNS = 1000
	run := func() int64 {
		e := New(2, 1024, p, 11)
		w := e.Space().AllocLine(1)
		var total int64
		e.Spawn(0, func(ctx api.Ctx) {
			t0 := ctx.Now()
			for i := 0; i < 100; i++ {
				ctx.RRead(w)
			}
			total = ctx.Now() - t0
		})
		e.Run(1 << 62)
		return total
	}
	if run() != run() {
		t.Fatal("jitter broke determinism")
	}
}
