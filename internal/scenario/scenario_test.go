package scenario

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"alock/internal/harness"
	"alock/internal/sweep"
)

func TestRegistryLookup(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("only %d scenarios registered: %v", len(names), names)
	}
	for _, want := range []string{
		"paper/fig1-loopback",
		"paper/fig5-high-contention",
		"paper/fig6-latency",
		"hotkey-zipf",
		"bursty-arrivals",
		"skewed-home",
	} {
		if _, ok := Get(want); !ok {
			t.Errorf("scenario %q not registered", want)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("bogus name resolved")
	}
}

func TestAllSortedAndDescribed(t *testing.T) {
	all := All()
	for i, sc := range all {
		if sc.Description == "" {
			t.Errorf("%s has no description", sc.Name)
		}
		if i > 0 && all[i-1].Name >= sc.Name {
			t.Errorf("All() not sorted: %q before %q", all[i-1].Name, sc.Name)
		}
	}
}

func TestExpansionsAreValidAndPure(t *testing.T) {
	s := harness.Scale{TestTiny: true}
	for _, sc := range All() {
		cfgs := sc.Configs(s)
		if len(cfgs) == 0 {
			t.Errorf("%s expands to nothing", sc.Name)
			continue
		}
		again := sc.Configs(s)
		if len(again) != len(cfgs) {
			t.Errorf("%s: expansion not pure (%d vs %d configs)", sc.Name, len(cfgs), len(again))
		}
		for i, c := range cfgs {
			if c != again[i] {
				t.Errorf("%s: config %d differs between expansions", sc.Name, i)
				break
			}
		}
	}
}

func TestPerScenarioScaleOverrides(t *testing.T) {
	sc, ok := Get("lease/holders")
	if !ok {
		t.Fatal("lease/holders not registered")
	}
	// At full scale the override pins the thread list and stretches the
	// measurement window.
	cfgs := sc.Configs(harness.Scale{})
	if len(cfgs) == 0 {
		t.Fatal("no configs")
	}
	threads := map[int]bool{}
	for _, c := range cfgs {
		threads[c.ThreadsPerNode] = true
		if c.MeasureNS != 8_000_000 {
			t.Fatalf("override horizon not applied: measure=%d", c.MeasureNS)
		}
	}
	for _, want := range []int{2, 4, 8} {
		if !threads[want] {
			t.Errorf("override thread list missing %d (got %v)", want, threads)
		}
	}
	if threads[12] {
		t.Error("full-scale preset thread count leaked past the override")
	}
	// TestTiny must win over the override so smoke tests stay tiny.
	for _, c := range sc.Configs(harness.Scale{TestTiny: true}) {
		if c.ThreadsPerNode != 2 || c.MeasureNS != 250_000 {
			t.Fatalf("TestTiny lost to scenario override: threads=%d measure=%d",
				c.ThreadsPerNode, c.MeasureNS)
		}
	}
}

func TestRWAndFailureScenariosRegistered(t *testing.T) {
	for _, want := range []string{
		"rw/read-heavy", "rw/mixed", "rw/queue-scaling", "rw/storm-tails",
		"lease/holders", "lease/rw-leases",
		"fail/jitter-storm", "fail/jitter-recovery",
	} {
		sc, ok := Get(want)
		if !ok {
			t.Errorf("scenario %q not registered", want)
			continue
		}
		if len(sc.Configs(harness.Scale{TestTiny: true})) == 0 {
			t.Errorf("%s expands to nothing", want)
		}
	}
	// The RW scenarios must actually set a read share, the jitter
	// scenarios a jitter model.
	rw, _ := Get("rw/read-heavy")
	for _, c := range rw.Configs(harness.Scale{TestTiny: true}) {
		if c.ReadPct != 95 {
			t.Errorf("rw/read-heavy config has ReadPct=%d", c.ReadPct)
		}
	}
	storm, _ := Get("fail/jitter-storm")
	for _, c := range storm.Configs(harness.Scale{TestTiny: true}) {
		if c.Model.JitterProb == 0 || c.Model.JitterNS == 0 {
			t.Error("fail/jitter-storm config has no jitter model")
		}
	}
}

func TestByPrefixAndRWFigureGroups(t *testing.T) {
	fams := ByPrefix("rw/", "lease/", "fail/", "multi/", "deadlock/", "svc/")
	if len(fams) < 19 {
		t.Fatalf("only %d scenarios in the RW figure families", len(fams))
	}
	for _, sc := range fams {
		if !strings.HasPrefix(sc.Name, "rw/") && !strings.HasPrefix(sc.Name, "lease/") &&
			!strings.HasPrefix(sc.Name, "fail/") && !strings.HasPrefix(sc.Name, "multi/") &&
			!strings.HasPrefix(sc.Name, "deadlock/") && !strings.HasPrefix(sc.Name, "svc/") {
			t.Errorf("ByPrefix leaked %q", sc.Name)
		}
	}
	if got := ByPrefix("paper/fig1"); len(got) != 1 || got[0].Name != "paper/fig1-loopback" {
		t.Errorf("ByPrefix(paper/fig1) = %v", got)
	}

	groups := RWFigureGroups(harness.Scale{TestTiny: true})
	if len(groups) != len(fams) {
		t.Fatalf("groups = %d, want %d", len(groups), len(fams))
	}
	for i, g := range groups {
		if g.Name != fams[i].Name {
			t.Errorf("group %d = %q, want %q", i, g.Name, fams[i].Name)
		}
		if len(g.Configs) == 0 {
			t.Errorf("group %q expands to nothing", g.Name)
		}
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	expectPanic := func(name string, sc Scenario) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(sc)
	}
	expectPanic("empty", Scenario{})
	expectPanic("duplicate", Scenario{
		Name:   "paper/fig1-loopback",
		Expand: func(harness.Scale) []harness.Config { return nil },
	})
}

// TestListingDeterministicallySorted pins the -list-scenarios contract:
// Names and All enumerate the registry in sorted order (maps iterate
// randomly; the sort is what makes CLI output and the figure groups
// reproducible run to run).
func TestListingDeterministicallySorted(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() has %d entries, Names() %d", len(all), len(names))
	}
	for i, sc := range all {
		if sc.Name != names[i] {
			t.Errorf("All()[%d] = %q, Names()[%d] = %q", i, sc.Name, i, names[i])
		}
	}
}

// TestTokenScenariosRegistered pins the failure/transaction catalog added
// with the acquisition-token API.
func TestTokenScenariosRegistered(t *testing.T) {
	ab, ok := Get("fail/abandoned-holder")
	if !ok {
		t.Fatal("fail/abandoned-holder not registered")
	}
	for _, c := range ab.Configs(harness.Scale{TestTiny: true}) {
		if c.AcquireTimeout <= 0 || c.AbandonProb <= 0 || c.AbandonHold <= 0 {
			t.Errorf("fail/abandoned-holder config missing failure knobs: %+v", c)
		}
	}
	to, ok := Get("fail/timeout-recovery")
	if !ok {
		t.Fatal("fail/timeout-recovery not registered")
	}
	timeouts := map[time.Duration]bool{}
	for _, c := range to.Configs(harness.Scale{TestTiny: true}) {
		if c.AcquireTimeout <= 0 {
			t.Errorf("fail/timeout-recovery config without deadline: %+v", c)
		}
		timeouts[c.AcquireTimeout] = true
	}
	if len(timeouts) != 3 {
		t.Errorf("fail/timeout-recovery sweeps %d deadlines, want 3", len(timeouts))
	}
	pair, ok := Get("multi/two-lock")
	if !ok {
		t.Fatal("multi/two-lock not registered")
	}
	for _, c := range pair.Configs(harness.Scale{TestTiny: true}) {
		if c.PairProb <= 0 {
			t.Errorf("multi/two-lock config without pair share: %+v", c)
		}
	}
}

// TestScenariosRunEndToEnd executes every scenario at smoke-test scale
// through the parallel sweep runner: the full scenario → sweep → engine →
// report path of the CLIs.
func TestScenariosRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := harness.Scale{TestTiny: true}
	for _, sc := range All() {
		sc := sc
		name := strings.ReplaceAll(sc.Name, "/", "_")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			results, err := sweep.Runner{Parallel: 2}.Run(sc.Configs(s))
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			for i, r := range results {
				if r.Ops == 0 {
					t.Errorf("%s: run %d recorded no operations", sc.Name, i)
				}
			}
		})
	}
}

// TestSvcDeterminism pins the lock-service layer's determinism contract
// at the widths CI drives: every svc/ scenario is bit-identical at sweep
// -parallel 1 vs 8, and on the serial engine vs -engine-shards 4. Open-loop arrivals are
// per-shard Poisson streams with shard-local Go state, so neither sweep
// concurrency nor the windowed parallel executor may change a byte.
func TestSvcDeterminism(t *testing.T) {
	s := harness.Scale{TestTiny: true}
	for _, sc := range ByPrefix("svc/") {
		sc := sc
		t.Run(strings.ReplaceAll(sc.Name, "/", "_"), func(t *testing.T) {
			t.Parallel()
			cfgs := sc.Configs(s)
			serial, err := sweep.Runner{Parallel: 1}.Run(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := sweep.Runner{Parallel: 8}.Run(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			sharded := make([]harness.Config, len(cfgs))
			for i, c := range cfgs {
				c.EngineShards = 4
				sharded[i] = c
			}
			shardedRes, err := sweep.Runner{Parallel: 8}.Run(sharded)
			if err != nil {
				t.Fatal(err)
			}
			var served int64
			for i := range cfgs {
				if !reflect.DeepEqual(serial[i], parallel[i]) {
					t.Errorf("config %d: -parallel 8 diverged from -parallel 1", i)
				}
				shardedRes[i].Config.EngineShards = 0
				if !reflect.DeepEqual(serial[i], shardedRes[i]) {
					t.Errorf("config %d: -engine-shards 4 diverged from serial engine", i)
				}
				if serial[i].Svc == nil {
					t.Fatalf("config %d: no service stats", i)
				}
				served += serial[i].Svc.Served
			}
			if served == 0 {
				t.Error("scenario served nothing — determinism check is vacuous")
			}
		})
	}
}

// TestDeadlockDiningParallelDeterminism: the transaction layer's RNG
// discipline (workload draws vs the backoff subsystem, the Go-side age
// registry) keeps runs independent seeded simulations — deadlock/dining
// results are bit-identical at -parallel 1 and -parallel 8.
func TestDeadlockDiningParallelDeterminism(t *testing.T) {
	sc, ok := Get("deadlock/dining")
	if !ok {
		t.Fatal("deadlock/dining not registered")
	}
	cfgs := sc.Configs(harness.Scale{TestTiny: true})
	serial, err := sweep.Runner{Parallel: 1}.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweep.Runner{Parallel: 8}.Run(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("config %d (%s %s): parallel diverged from serial",
				i, cfgs[i].Algorithm, cfgs[i].TxnPolicy)
		}
	}
	var commits int64
	for _, r := range serial {
		commits += r.TxnCommits
	}
	if commits == 0 {
		t.Error("dining sweep recorded no commits — determinism check is vacuous")
	}
}
