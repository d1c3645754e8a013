package rules

// HotPathRoots declares the functions whose transitive callees must stay
// allocation-free. This is the checked-in twin of what alloc_test.go
// probes dynamically (equal Mallocs across serial runs of different
// lengths, `testing.AllocsPerRun` over window dispatch): the steady-state
// event loop of both executors, from scheduling through dispatch and thread resume. Perf PRs
// that add a new dispatch entry point extend this list; the allocfree
// analyzer reports a finding if a root name stops resolving, so renames
// can't silently shrink the proved surface.
//
// Names use the callgraph format: "pkgpath.Func" or
// "pkgpath.(*Recv).Method". `go` edges are not followed — the window
// pool's helper startup is priced separately from the per-event loop.
// Thread bodies run on coroutines: a resume enters one through the
// function value iter.Pull returns, which the call graph cannot see
// through, so the proof stops at the resume and suspend points and
// workload code stays out of the proved set.
var HotPathRoots = []string{
	// Serial executor: Run's driver loop and the inline dispatch it shares
	// with blocking threads.
	"alock/internal/sim.(*Engine).runSerial",
	"alock/internal/sim.(*Engine).dispatch",

	// Thread handoff, in every mode: resuming a thread's coroutine, and a
	// blocking thread's fast path, wake-up scheduling and suspension.
	"alock/internal/sim.(*Thread).resume",
	"alock/internal/sim.(*Thread).block",
	"alock/internal/sim.(*Thread).suspend",

	// Event queue: the typed 4-ary heap's steady-state operations.
	"alock/internal/sim.(*eventQueue).push",
	"alock/internal/sim.(*eventQueue).pop",
	"alock/internal/sim.(*eventQueue).min",

	// Windowed-parallel executor: the per-window dispatch loop and the
	// per-shard drain it fans out to.
	"alock/internal/sim.(*Engine).runWindowed",
	"alock/internal/sim.(*shard).runWindow",
}
