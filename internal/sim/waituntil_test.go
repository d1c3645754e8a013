package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/ptr"
	"alock/internal/slots"
)

// waitFn is one way of idling until ready holds: the loop WaitUntil is
// defined by, or WaitUntil itself.
type waitFn func(ctx api.Ctx, d time.Duration, ready func() bool)

func loopWait(ctx api.Ctx, d time.Duration, ready func() bool) {
	for !ready() {
		ctx.Work(d)
	}
}

func untilWait(ctx api.Ctx, d time.Duration, ready func() bool) { ctx.WaitUntil(d, ready) }

// waitCase spawns a scenario's threads on e, idling them with wait. Each
// thread appends the virtual times at which it proceeds from a wait or
// finishes its work to its own slot of logs (indexed by thread ID, so
// concurrent shards never share a slot). Waiters and the state their
// predicates read share a node, as the WaitUntil contract requires.
type waitCase struct {
	name    string
	threads int
	horizon int64
	spawn   func(e *Engine, wait waitFn, logs [][]int64)
}

var waitCases = []waitCase{
	{
		// A waiter idles while its producer's long Work leaves the queue
		// empty, so popped polls take the fast path (the engine's repoll;
		// the thread's own block once it runs alone), then waits on its own
		// clock with no other thread left.
		name: "lone-waiter", threads: 2, horizon: 1 << 40,
		spawn: func(e *Engine, wait waitFn, logs [][]int64) {
			var flag bool
			e.Spawn(0, func(ctx api.Ctx) {
				wait(ctx, 100*time.Nanosecond, func() bool { return flag })
				logs[ctx.ThreadID()] = append(logs[ctx.ThreadID()], ctx.Now())
				wait(ctx, 70*time.Nanosecond, func() bool { return ctx.Now() >= 20_000 })
				logs[ctx.ThreadID()] = append(logs[ctx.ThreadID()], ctx.Now())
			})
			e.Spawn(0, func(ctx api.Ctx) {
				ctx.Work(3_050 * time.Nanosecond)
				flag = true
				logs[ctx.ThreadID()] = append(logs[ctx.ThreadID()], ctx.Now())
			})
		},
	},
	{
		// A producer's wake-up lands exactly on a poll instant (t=300 for
		// 100ns polls from t=0). Node 0's producer scheduled its wake-up
		// before the waiter's poll and runs first, so the waiter proceeds
		// at 300; node 1's producer schedules it after, so the poll at 300
		// still sees nothing and the waiter proceeds at 400.
		name: "poll-instant-tie", threads: 4, horizon: 1 << 40,
		spawn: func(e *Engine, wait waitFn, logs [][]int64) {
			for node, steps := range [][]time.Duration{{300}, {250, 50}} {
				flag := new(bool)
				e.Spawn(node, func(ctx api.Ctx) {
					wait(ctx, 100*time.Nanosecond, func() bool { return *flag })
					logs[ctx.ThreadID()] = append(logs[ctx.ThreadID()], ctx.Now())
				})
				e.Spawn(node, func(ctx api.Ctx) {
					for _, d := range steps {
						ctx.Work(d * time.Nanosecond)
					}
					*flag = true
					logs[ctx.ThreadID()] = append(logs[ctx.ThreadID()], ctx.Now())
				})
			}
		},
	},
	{
		// Two waiters on one node with different poll quanta compete for
		// items produced one at a time; each log records the times its
		// waiter took an item.
		name: "two-waiters-one-item", threads: 3, horizon: 1 << 40,
		spawn: func(e *Engine, wait waitFn, logs [][]int64) {
			var items int
			var done bool
			for _, d := range []time.Duration{100, 130} {
				e.Spawn(1, func(ctx api.Ctx) {
					ready := func() bool { return items > 0 || done }
					for {
						wait(ctx, d*time.Nanosecond, ready)
						if items == 0 {
							logs[ctx.ThreadID()] = append(logs[ctx.ThreadID()], ctx.Now())
							return
						}
						items--
						logs[ctx.ThreadID()] = append(logs[ctx.ThreadID()], ctx.Now())
						ctx.Work(40 * time.Nanosecond)
					}
				})
			}
			e.Spawn(1, func(ctx api.Ctx) {
				for i := 0; i < 40; i++ {
					ctx.Work(time.Duration(90+37*(i%5)) * time.Nanosecond)
					items++
				}
				ctx.Work(time.Microsecond)
				done = true
				logs[ctx.ThreadID()] = append(logs[ctx.ThreadID()], ctx.Now())
			})
		},
	},
	{
		// Waiters on every node wait for work that never comes, so the
		// horizon (t=10_033, mid-poll for every quantum) ends each wait;
		// cross-node verb traffic keeps the windowed executor's windows
		// short, so polls straddle window ends.
		name: "horizon-mid-wait", threads: 8, horizon: 10_033,
		spawn: func(e *Engine, wait waitFn, logs [][]int64) {
			words := make([]ptr.Ptr, 4)
			for n := range words {
				words[n] = e.Space().AllocLine(n)
			}
			for n := range words {
				var never bool
				d := time.Duration(60+45*n) * time.Nanosecond
				e.Spawn(n, func(ctx api.Ctx) {
					wait(ctx, d, func() bool { return never || ctx.Stopped() })
					logs[ctx.ThreadID()] = append(logs[ctx.ThreadID()], ctx.Now())
				})
				e.Spawn(n, func(ctx api.Ctx) {
					for i := 0; !ctx.Stopped(); i++ {
						p := words[(n+1+i%3)%4] // another node's word
						if old := ctx.RRead(p); ctx.RCAS(p, old, old+1) != old {
							ctx.Pause(i % 3)
						}
						ctx.Work(time.Duration(20+i%50) * time.Nanosecond)
					}
					logs[ctx.ThreadID()] = append(logs[ctx.ThreadID()], ctx.Now())
				})
			}
		},
	},
}

// waitModes are the engines the equivalence must hold on.
var waitModes = []engineMode{
	{"serial", nil},
	{"oracle", []Option{WithOracle()}},
	{"windowed-2", []Option{WithShards(2)}},
	{"windowed-4", []Option{WithShards(4)}},
}

// waitRun is what a run exposes of its schedule: event count, final
// clock, each shard's issued sequence numbers and the waiters' logs.
type waitRun struct {
	events uint64
	now    int64
	seqs   []uint64
	logs   [][]int64
}

func runWaitCase(c waitCase, wait waitFn, opts ...Option) waitRun {
	e := New(4, 1024, model.CX3(), 7, opts...)
	logs := make([][]int64, c.threads)
	c.spawn(e, wait, logs)
	e.Run(c.horizon)
	r := waitRun{events: e.Events(), now: e.Now(), logs: logs}
	for _, s := range e.shards {
		r.seqs = append(r.seqs, s.seqCtr)
	}
	return r
}

// TestWaitUntilMatchesWorkLoop: in every engine, threads idling in
// WaitUntil produce the schedule of the same threads idling in its
// defining Work loop — the same event count, final clock, sequence numbers
// issued per shard, and times at which every thread proceeds — although
// the engine re-checks their predicates without resuming them. The logs
// must also agree across engines.
func TestWaitUntilMatchesWorkLoop(t *testing.T) {
	restore := slots.SetCapacity(4) // let the windowed modes run pool helpers
	defer restore()
	for _, c := range waitCases {
		var serial waitRun
		for i, m := range waitModes {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				loop := runWaitCase(c, loopWait, m.opts...)
				until := runWaitCase(c, untilWait, m.opts...)
				if !reflect.DeepEqual(loop, until) {
					t.Fatalf("WaitUntil diverges from its Work loop:\n loop  %+v\n until %+v", loop, until)
				}
				for id, l := range until.logs {
					if len(l) == 0 {
						t.Fatalf("thread %d never proceeded", id)
					}
				}
				if i == 0 {
					serial = until
					return
				}
				if until.events != serial.events || until.now != serial.now || !reflect.DeepEqual(until.logs, serial.logs) {
					t.Fatalf("%s diverges from serial:\n serial %+v\n %s %+v", m.name, serial, m.name, until)
				}
			})
		}
	}
	// The tie case's outcome, pinned: both seq orders are exercised.
	r := runWaitCase(waitCases[1], untilWait)
	if got := fmt.Sprint(r.logs); got != "[[300] [300] [400] [300]]" {
		t.Fatalf("poll-instant-tie threads proceeded at %s, want waiters at 300 and 400", got)
	}
}
