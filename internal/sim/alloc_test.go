package sim

import (
	"runtime"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/slots"
)

// TestScheduleStepZeroAllocs is the allocation guard on the engine's
// schedule/pop hot path: once the event slice has grown to its working
// size, processing an event — heap pop, accounting, the resume of the
// thread's coroutine, its yield and the re-schedule on the next block —
// must not allocate. Two serial runs of the same engine setup whose event
// counts differ by tens of thousands must therefore allocate exactly as
// often: any per-event cost shows up as the difference. The old
// container/heap queue boxed every event into an interface{} on push and
// pop, one heap allocation per scheduled event; this test keeps it gone.
func TestScheduleStepZeroAllocs(t *testing.T) {
	requireNoPerEventAllocs(t, "schedule/pop path", func() *Engine {
		e := New(1, 1024, model.Uniform(10), 1)
		for i := 0; i < 4; i++ {
			e.Spawn(0, func(ctx api.Ctx) {
				for !ctx.Stopped() {
					ctx.Work(10 * time.Nanosecond)
				}
			})
		}
		return e
	})
}

// requireNoPerEventAllocs runs engines from build to a short and a long
// horizon and fails unless both runs allocate exactly as often.
func requireNoPerEventAllocs(t *testing.T, what string, build func() *Engine) {
	t.Helper()
	// run measures one Run to horizon; the best of a few attempts discards
	// allocations by unrelated runtime activity during the window.
	run := func(horizon int64) (events, mallocs uint64) {
		mallocs = ^uint64(0)
		for attempt := 0; attempt < 3; attempt++ {
			e := build()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e.Run(horizon)
			runtime.ReadMemStats(&after)
			events = e.Events()
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		}
		return events, mallocs
	}
	run(1_000) // warm up: the runtime's goroutine free lists, for the coroutines
	shortEv, shortAllocs := run(1_000)
	longEv, longAllocs := run(100_000)
	if longEv < shortEv+10_000 {
		t.Fatalf("runs too close to measure: %d vs %d events", shortEv, longEv)
	}
	if longAllocs != shortAllocs {
		t.Fatalf("%s allocates: %d allocs over %d events vs %d over %d (%.4f allocs/event)",
			what, longAllocs, longEv, shortAllocs, shortEv,
			(float64(longAllocs)-float64(shortAllocs))/float64(longEv-shortEv))
	}
}

// TestDirectRunNearZeroAllocs bounds serial Run, whose blocking threads
// dispatch inline and yield to the driver loop only to name the next
// thread: a contended run processing tens of thousands of events may
// allocate only its fixed setup (one coroutine per thread) — not per
// event.
func TestDirectRunNearZeroAllocs(t *testing.T) {
	e, _ := contendedEngine()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Run(2_000_000)
	runtime.ReadMemStats(&after)
	events := e.Events()
	if events < 10_000 {
		t.Fatalf("run too small to measure: %d events", events)
	}
	allocs := after.Mallocs - before.Mallocs
	// Creating 4 coroutines and the harness of ReadMemStats itself cost a
	// fixed few dozen allocations; per-event allocation would show up as
	// tens of thousands.
	if allocs > 500 {
		t.Fatalf("serial Run allocated %d times over %d events (%.4f allocs/event), want O(setup)",
			allocs, events, float64(allocs)/float64(events))
	}
}

// TestWindowPoolDispatchZeroAllocs guards the windowed executor's
// per-window cost: the old driver spawned fresh helper goroutines and a
// capturing closure for every window; the pool parks persistent helpers
// between windows, so dispatching a window must not allocate. The helper
// count is explicit — the test does not depend on the slot budget.
func TestWindowPoolDispatchZeroAllocs(t *testing.T) {
	e := New(4, 64, model.Uniform(10), 1)
	e.winActive = append(e.winActive[:0], e.shards...) // queues empty: dispatch cost only
	pool := newWindowPool(e, 2)
	defer pool.close()
	pool.runWindow() // warm: helpers reach their parked state
	avg := testing.AllocsPerRun(2000, func() { pool.runWindow() })
	if avg != 0 {
		t.Fatalf("window dispatch allocates %.3f allocs/window, want 0", avg)
	}
}

// TestWaitUntilZeroAllocsPerPoll: threads idling in WaitUntil poll without
// allocating, whichever driver re-checks their predicates. Polls are the
// bulk of an idle service's events, so two runs of the same setup whose
// poll counts differ by tens of thousands must allocate equally often —
// both on the serial engine and on the windowed executor. The slot budget
// is pinned to one so the windowed run spawns no pool helpers, whose
// goroutine creation allocates a varying few times per Run.
func TestWaitUntilZeroAllocsPerPoll(t *testing.T) {
	restore := slots.SetCapacity(1)
	defer restore()
	for _, m := range []engineMode{{"serial", nil}, {"windowed", []Option{WithShards(2)}}} {
		t.Run(m.name, func(t *testing.T) {
			requireNoPerEventAllocs(t, "WaitUntil polling", func() *Engine {
				e := New(2, 1024, model.Uniform(10), 1, m.opts...)
				for i := 0; i < 4; i++ {
					e.Spawn(i%2, func(ctx api.Ctx) {
						ready := func() bool { return ctx.Stopped() }
						ctx.WaitUntil(time.Duration(10+i)*time.Nanosecond, ready)
					})
				}
				return e
			})
		})
	}
}
