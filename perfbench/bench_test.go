package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"alock/internal/stats"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) || !near(median(xs), 5.5) {
		t.Fatalf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); !near(q1, 1) || !near(q3, 3) {
		t.Fatalf("3-value quartiles %v %v, want 1 3", q1, q3)
	}
	if got := spread(xs); !near(got, (8.25-2.75)/5.5) {
		t.Fatalf("spread %v", got)
	}
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Fatalf("odd median %v, want 3", got)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10_000, 99.9}, {99_999, 99.9}, {100_000, 99.99}, {10_000_000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestGeomeanAndFailShare(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v", got)
	}
	if got := failShare(3, 12); got != 0.25 {
		t.Errorf("failShare(3, 12) = %v", got)
	}
	if got := failShare(0, 0); got != 0 {
		t.Errorf("failShare(0, 0) = %v", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	var h stats.Hist
	// 100 samples spread evenly over the bucket [1024, 1088).
	for i := 0; i < 100; i++ {
		h.Add(1024 + int64(i)*64/100)
	}
	// One far sample keeps the bucket from being the last CDF point.
	h.Add(5000)
	sum, cdf := h.Summarize(), h.CDF()
	// Rank 50 of 101 sits 50.5/100 of the way through the bucket.
	want := 1024 + 64*(0.5-0)/(100.0/101)
	if got := histQuantile(sum, cdf, 0.5); !near(got, want) {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	if got := float64(sum.P50NS); got != 1024 {
		t.Fatalf("stats.Hist p50 = %v: expected the bucket's lower edge", got)
	}
	if got := histQuantile(sum, cdf, 0.999); got > 5000 || got < 4096 {
		t.Fatalf("p99.9 = %v, want inside the last bucket [4096, 5000]", got)
	}
	if lo, hi := bucketBounds(7); lo != 7 || hi != 8 {
		t.Fatalf("bucketBounds(7) = %d %d", lo, hi)
	}
	if lo, hi := bucketBounds(1100); lo != 1088 || hi != 1152 {
		t.Fatalf("bucketBounds(1100) = %d %d", lo, hi)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "config", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "setup", Start: 0, End: 20},
		{ID: 3, Parent: 1, Name: "engine run", Start: 20, End: 90},
		{ID: 4, Parent: 3, Name: "locks", Start: 20, End: 35},
		{ID: 5, Parent: 3, Name: "workload", Start: 30, End: 40}, // overlaps locks by 5
		{ID: 6, Parent: 3, Name: "Acquire", Start: 21, End: 80, Sample: true},
		{ID: 7, Parent: 1, Name: "aggregation", Start: 90, End: 100},
		{ID: 8, Parent: 2, Name: "sim.New", Start: 5, End: 200}, // clipped to its parent
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 0, 2: 5, 3: 50, 4: 15, 5: 10, 7: 10, 8: 195}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	if _, ok := self[6]; ok {
		t.Errorf("sample span got a self time")
	}
	l := traceLog{spans: spans}
	if got := l.layerSelf()["engine run"]; got != 50 {
		t.Errorf("layerSelf engine run = %d, want 50", got)
	}
}

func TestAddRunSubtractsThreadTime(t *testing.T) {
	var l traceLog
	cfg := l.add(span{Name: "config", Start: 0, End: 1000})
	rt := &runTrace{}
	rt.own[layerLocks], rt.own[layerWorkload] = 300, 100
	l.addRun(cfg, 100, 900, rt)
	self := l.layerSelf()
	if self["engine run"] != 400 || self["locks"] != 300 || self["workload"] != 100 {
		t.Fatalf("self times %v, want engine run 400, locks 300, workload 100", self)
	}
}

func TestIdleFrac(t *testing.T) {
	// Two workers over [0, 100): the last two reports at 90 and 100.
	if got := idleFrac(0, 100, []int64{40, 60, 90, 100}, 2); !near(got, 10.0/200) {
		t.Fatalf("idleFrac = %v, want 0.05", got)
	}
	if got := idleFrac(0, 100, []int64{100}, 2); got != 0 {
		t.Fatalf("too few completions: %v", got)
	}
}

// TestSmoke runs every workload at smoke-test scale, untraced and traced:
// every run's digest must match across repetitions, between the benchmark's
// assembly and harness.Run, traced and untraced, and windowed and serial.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs in -short mode")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Fatalf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) here",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b := bench{w: w, seed: 7, budgetNS: 1, outDir: t.TempDir(), tiny: true}
			o, err := b.measure()
			if err != nil {
				t.Fatal(err)
			}
			if !o.Correct || o.Attempted < minReps {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d notes=%v", o.Correct, o.Attempted, o.Failed, o.notes)
			}
			for _, m := range spec.EndToEnd {
				if got := o.Metrics[m.Name]; !(got.Value > 0) || got.Unit != m.Unit {
					t.Errorf("%s = %v %q, want > 0 %q", m.Name, got.Value, got.Unit, m.Unit)
				}
			}
			if len(o.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run prints %d metrics, BENCHMARK.json lists %d", len(o.Metrics), len(spec.EndToEnd))
			}
			tr, err := b.traced()
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Correct {
				t.Fatalf("traced: failed=%d notes=%v", tr.Failed, tr.notes)
			}
			for _, m := range spec.PerLayer {
				if got, ok := tr.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s missing or unit %q != %q", m.Name, got.Unit, m.Unit)
				}
			}
			if len(tr.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run prints %d metrics, BENCHMARK.json lists %d", len(tr.Metrics), len(spec.PerLayer))
			}
			if tr.Metrics["sim.self_s"].Value <= 0 || tr.Metrics["locks.self_s"].Value <= 0 {
				t.Errorf("self times sim=%v locks=%v", tr.Metrics["sim.self_s"].Value, tr.Metrics["locks.self_s"].Value)
			}
			if w.serialTwin && tr.Metrics["cluster.offered"].Value <= 0 {
				t.Errorf("service offered nothing")
			}
		})
	}
}
