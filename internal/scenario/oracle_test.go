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
// bit-identical results on all four engine configurations — the production
// engine (typed 4-ary event heap, serial Run with inline dispatch), the
// reference engine (container/heap, one thread resume per popped event),
// the sharded engine with the serial merge scheduler (EngineShards=1), and
// the conservative windowed parallel executor (EngineShards=4). The typed
// runs go through the parallel sweep runner and the oracle runs serially,
// so the comparison also re-proves sweep determinism at any -parallel
// setting against independent engine implementations.
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
		{"sharded-serial", 2, func(c *harness.Config) { c.EngineShards = 1 }},
		{"sharded-parallel", 2, func(c *harness.Config) { c.EngineShards = 4 }},
	}
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
