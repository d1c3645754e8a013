package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"alock/internal/api"
	"alock/internal/model"
	"alock/internal/slots"
)

// engineMode is one way of building an engine: both drivers (and the
// serial driver on the oracle queue) share the coroutine handoff, and each
// must surface failures on the goroutine that runs it and release every
// goroutine on a clean drain.
type engineMode struct {
	name string
	opts []Option
}

var engineModes = []engineMode{
	{"serial", nil},
	{"oracle", []Option{WithOracle()}},
	{"windowed", []Option{WithShards(2)}},
}

// mustPanicWith runs f and returns the message it panicked with on this
// goroutine, failing the test if it returned normally or the message lacks
// want.
func mustPanicWith(t *testing.T, want string, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
	}()
	if msg == "" {
		t.Fatalf("no panic on the driving goroutine, want one containing %q", want)
	}
	if !strings.Contains(msg, want) {
		t.Fatalf("panic %q does not contain %q", firstLine(msg), want)
	}
	return msg
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestFailuresSurfaceOnDriver: in every mode, a panic inside a thread body
// and a blown event budget re-panic on the goroutine driving the engine —
// the Run caller — however the panicking thread was resumed
// (driver loop, inline dispatch by another thread, or a window pool
// goroutine). The thread panic keeps its thread ID and the thread's stack.
// The same holds for WaitUntil: a panicking predicate is its waiter's
// panic wherever the engine evaluated it, a never-true predicate hits the
// event budget, and a non-positive poll interval is rejected.
func TestFailuresSurfaceOnDriver(t *testing.T) {
	restore := slots.SetCapacity(4) // let the windowed mode run pool helpers
	defer restore()
	for _, m := range engineModes {
		t.Run(m.name+"/thread-panic", func(t *testing.T) {
			e, words := shardedWorkload(2, 2, m.opts...)
			// Thread 4, on node 1, panics amid the workload's cross-node
			// traffic.
			e.Spawn(1, func(ctx api.Ctx) {
				for i := 0; i < 50; i++ {
					ctx.RRead(words[0])
					ctx.Work(20 * time.Nanosecond)
				}
				panic("boom")
			})
			msg := mustPanicWith(t, "sim: thread 4 panicked: boom", func() { e.Run(1 << 40) })
			if !strings.Contains(msg, "goroutine") {
				t.Errorf("thread panic lost the thread's stack:\n%s", msg)
			}
		})
		t.Run(m.name+"/max-events", func(t *testing.T) {
			e, _ := shardedWorkload(2, 2, append([]Option{WithMaxEvents(500)}, m.opts...)...)
			mustPanicWith(t, "exceeded 500 events", func() { e.Run(1 << 40) })
		})
		t.Run(m.name+"/poll-panic", func(t *testing.T) {
			e, _ := shardedWorkload(2, 2, m.opts...)
			// Thread 4 idles in WaitUntil; its predicate panics once the
			// clock passes 2µs, when the engine — inline in another
			// thread's dispatch, the driver loop or a pool goroutine —
			// evaluates it without resuming thread 4.
			e.Spawn(1, func(ctx api.Ctx) {
				ctx.WaitUntil(50*time.Nanosecond, func() bool {
					if ctx.Now() > 2_000 {
						panic("poll boom")
					}
					return false
				})
			})
			msg := mustPanicWith(t, "poll boom", func() { e.Run(1 << 40) })
			if want := "sim: thread 4 panicked: poll boom"; !strings.HasPrefix(msg, want) {
				t.Fatalf("predicate panic surfaced as %q, want it attributed to the waiter: %q", firstLine(msg), want)
			}
		})
		t.Run(m.name+"/poll-max-events", func(t *testing.T) {
			e := New(2, 1024, model.CX3(), 1, append([]Option{WithMaxEvents(500)}, m.opts...)...)
			e.Spawn(0, func(ctx api.Ctx) { ctx.Work(3 * time.Microsecond) })
			e.Spawn(1, func(ctx api.Ctx) {
				ctx.WaitUntil(10*time.Nanosecond, func() bool { return false })
			})
			mustPanicWith(t, "exceeded 500 events", func() { e.Run(1 << 40) })
		})
		t.Run(m.name+"/poll-nonpositive", func(t *testing.T) {
			e := New(1, 1024, model.CX3(), 1, m.opts...)
			e.Spawn(0, func(ctx api.Ctx) { ctx.WaitUntil(0, func() bool { return false }) })
			mustPanicWith(t, "sim: thread 0 panicked: sim: WaitUntil(0s): the poll interval must be positive", func() { e.Run(1 << 40) })
		})
	}
}

// TestDeadlockBackstop: a thread still suspended when the queues drain is
// reported as blocked forever. No api.Ctx workload reaches this — every
// suspension schedules the event that resumes it — so the test drops a
// thread's spawn wake-up — from the serial queue, or from node 1's shard
// queue under the windowed executor — to stand in for an engine bug.
func TestDeadlockBackstop(t *testing.T) {
	for _, m := range engineModes {
		t.Run(m.name, func(t *testing.T) {
			e := New(2, 1024, model.CX3(), 1, m.opts...)
			e.Spawn(1, func(ctx api.Ctx) { ctx.Work(time.Microsecond) })
			if e.sharded {
				e.shards[1].q.pop()
			} else {
				e.pop()
			}
			mustPanicWith(t, "sim: thread 0 blocked forever", func() { e.Run(1 << 40) })
		})
	}
}

// TestCleanDrainReleasesGoroutines: after a clean drain in every mode the
// goroutine count returns to its level before New — each exited thread's
// coroutine has ended and the window pool's helpers have retired. The
// helpers exit asynchronously after the pool closes, so the count is
// polled briefly.
func TestCleanDrainReleasesGoroutines(t *testing.T) {
	restore := slots.SetCapacity(4)
	defer restore()
	for _, m := range engineModes {
		t.Run(m.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e, _ := shardedWorkload(3, 2, m.opts...)
			e.Run(100_000)
			if e.pending() != 0 {
				t.Fatal("engine did not drain")
			}
			for _, s := range e.shards {
				if s.q.len() != 0 {
					t.Fatalf("shard %d queue did not drain", s.node)
				}
			}
			got := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); got > base && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				got = runtime.NumGoroutine()
			}
			if got > base {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after a clean drain, %d before New:\n%s",
					got, base, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
