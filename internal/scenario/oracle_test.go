package scenario

import (
	"reflect"
	"strings"
	"testing"

	"alock/internal/harness"
	"alock/internal/sweep"
)

// TestTypedEngineMatchesOracleEveryScenario is the engine-swap acceptance
// gate: every registered scenario, expanded at smoke scale, must produce
// bit-identical results on all three engine configurations — the
// production serial engine (typed 4-ary event heap), the serial engine on
// the reference container/heap queue, and the conservative windowed
// parallel executor (EngineShards=4). The typed runs go through the
// parallel sweep runner and the oracle runs serially, so the comparison
// also re-proves sweep determinism at any -parallel setting.
//
// Every configuration's results are also checked against the golden
// fingerprints in testdata/golden.json (see golden_test.go), which pin the
// schedule across commits: a change that shifts every engine alike — an
// RNG stream or tie order, say — fails here. Regenerate with -update and
// name the changed scenarios and the reason in the change description.
// The fingerprints were generated on amd64 and no other architecture has
// been checked. They hash float fields (throughput, means, CDF fractions),
// and service arrival gaps are drawn through math.Log, so an architecture
// that fuses multiply-adds or computes math.Log differently may not
// reproduce them even with an unchanged schedule.
func TestTypedEngineMatchesOracleEveryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := harness.Scale{TestTiny: true}
	variants := []struct {
		name     string
		parallel int
		mutate   func(*harness.Config)
	}{
		{"oracle", 1, func(c *harness.Config) { c.Oracle = true }},
		{"windowed", 2, func(c *harness.Config) { c.EngineShards = 4 }},
	}
	g := loadGoldens(t)
	t.Cleanup(func() { g.finish(t) })
	for _, sc := range All() {
		sc := sc
		name := strings.ReplaceAll(sc.Name, "/", "_")
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfgs := sc.Configs(s)
			typed, err := sweep.Runner{Parallel: 4}.Run(cfgs)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			g.check(t, sc.Name, "typed", typed)
			for _, v := range variants {
				vcfgs := make([]harness.Config, len(cfgs))
				for i, c := range cfgs {
					v.mutate(&c)
					vcfgs[i] = c
				}
				got, err := sweep.Runner{Parallel: v.parallel}.Run(vcfgs)
				if err != nil {
					t.Fatalf("%s (%s): %v", sc.Name, v.name, err)
				}
				g.check(t, sc.Name, v.name, got)
				for i := range typed {
					// The engine-selection knobs are the one legitimate
					// difference; everything else must match bit for bit.
					g := got[i]
					g.Config.Oracle = false
					g.Config.EngineShards = 0
					if !reflect.DeepEqual(typed[i], g) {
						t.Errorf("%s: config %d (%s) diverged between typed and %s engines",
							sc.Name, i, cfgs[i].Algorithm, v.name)
					}
				}
			}
		})
	}
}
