package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"sync"
	"testing"

	"alock/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this run's results")

const goldenPath = "testdata/golden.json"

// goldenEntry pins one config's result across commits: the sha256 of its
// canonical Result JSON and its simulator event count.
type goldenEntry struct {
	SHA256 string `json:"sha256"`
	Events uint64 `json:"events"`
}

// fingerprintResult canonicalizes r (engine-selection knobs zeroed, so
// every engine mode hashes alike) and returns its golden entry.
func fingerprintResult(t *testing.T, r harness.Result) goldenEntry {
	t.Helper()
	r.Config.Oracle = false
	r.Config.EngineShards = 0
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	sum := sha256.Sum256(b)
	return goldenEntry{SHA256: hex.EncodeToString(sum[:]), Events: r.Events}
}

// goldens holds the checked-in fingerprints (scenario name → one entry per
// config) and collects this run's, for -update.
type goldens struct {
	mu   sync.Mutex
	want map[string][]goldenEntry
	got  map[string][]goldenEntry
}

func loadGoldens(t *testing.T) *goldens {
	t.Helper()
	g := &goldens{got: map[string][]goldenEntry{}}
	if *update {
		return g
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update): %v", err)
	}
	if err := json.Unmarshal(b, &g.want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return g
}

// check compares one engine mode's results for scenario sc against the
// golden entries, and records them for -update. Every mode must produce
// the same entries, so the first mode's are the ones written.
func (g *goldens) check(t *testing.T, sc, mode string, results []harness.Result) {
	t.Helper()
	got := make([]goldenEntry, len(results))
	for i, r := range results {
		got[i] = fingerprintResult(t, r)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.got[sc]; !ok {
		g.got[sc] = got
	}
	if *update {
		return
	}
	want, ok := g.want[sc]
	if !ok {
		t.Errorf("%s: no golden fingerprints (regenerate with -update)", sc)
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s: %d configs, golden has %d", sc, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: config %d (%s engine) fingerprint %s/%d events, golden %s/%d events",
				sc, i, mode, got[i].SHA256[:12], got[i].Events, want[i].SHA256[:12], want[i].Events)
		}
	}
}

// finish runs after every scenario's subtest. With -update it writes the
// collected fingerprints; otherwise it reports golden entries for
// scenarios no longer registered. Both need the full scenario set, so a
// -run filtered invocation skips them.
func (g *goldens) finish(t *testing.T) {
	if len(g.got) != len(All()) || t.Failed() {
		if *update {
			t.Error("-update needs a passing run over every scenario")
		}
		return
	}
	if *update {
		b, err := json.MarshalIndent(g.got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var stale []string
	for name := range g.want {
		if _, ok := g.got[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("golden entry for unregistered scenario %s (regenerate with -update)", name)
	}
}
