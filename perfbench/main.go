// Command perfbench is the repository's benchmark. One invocation runs one
// workload, generated from --seed, for about --seconds seconds, checks every
// run's output, prints each metric by name with its unit, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 it reports the end-to-end metrics, from untraced runs on
// the repo's own entry points (harness.Run, sweep.Runner). With --trace 1
// it reports per-layer metrics from a separate traced run, which the
// benchmark assembles from the layers' public functions and whose output
// must equal the untraced runs', plus micro costs of single layer calls.
// The traced run's spans are written as Chrome trace JSON under --out.
//
// Host figures here are medians over repetitions on the host named in the
// provenance line. The older BENCH_0006–0008 files hold best-of-N,
// single-core events/sec and are not comparable to these medians.
//
//	bash perfbench/run.sh --workload alock-closed --seed 1 --seconds 35 --trace 0
//
// Its tests (the benchmark's own arithmetic and a small-scale run of each
// workload) run with `go test ./...` inside perfbench, which is a Go module
// of its own; its lint is `go run ./cmd/lint -dir perfbench -skip
// allocfree,shardflow ./...` from the repository root (those two analyzers'
// roots name engine functions outside this module).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"alock/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: alock-closed, fig6-sweep or svc-windowed")
	seed := fs.Int64("seed", 0, "input seed (>= 0); the same seed gives the same inputs")
	seconds := fs.Int("seconds", 35, "measurement time in seconds (1..600)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build/perfbench", "directory for trace files and result records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *seed < 0 {
		err = fmt.Errorf("seed %d is negative", *seed)
	}
	if err == nil && (*seconds < 1 || *seconds > 600) {
		err = fmt.Errorf("seconds %d out of range 1..600", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("trace must be 0 or 1, not %d", *trace)
	}
	if err == nil {
		err = os.MkdirAll(*out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	// Harness seeds must be non-zero (0 means "default"), so seed n runs
	// the inputs of harness seed n+1.
	b := bench{w: w, seed: *seed + 1, budgetNS: int64(*seconds) * 1e9, outDir: *out}
	var r *outcome
	if *trace == 1 {
		r, err = b.traced()
	} else {
		r, err = b.measure()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	prov := provenance(*name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# %s\n", prov.line())
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, m := range r.order {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", m, r.Metrics[m].Value, r.Metrics[m].Unit)
	}
	rec := filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%d.json", *name, *seed, *trace))
	if err := writeJSON(rec, map[string]any{"provenance": prov, "why": w.why, "notes": r.notes, "result": r}); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing result record:", err)
		return 2
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// bench is one invocation's settings.
type bench struct {
	w        *workloadDef
	seed     int64
	budgetNS int64
	outDir   string
	tiny     bool // smoke-test scale (tests only)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the final JSON line plus the metric print order and notes.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
	notes     []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.Metrics == nil {
		o.Metrics = map[string]metric{}
	}
	if _, dup := o.Metrics[name]; !dup {
		o.order = append(o.order, name)
	}
	o.Metrics[name] = metric{Value: v, Unit: unit}
}

// finish copies the checker's verdict into the outcome.
func (o *outcome) finish(ck *checker) *outcome {
	o.Attempted, o.Failed = ck.attempted, ck.failed
	o.Correct = ck.failed == 0 && ck.attempted > 0
	o.notes = append(o.notes, ck.notes...)
	return o
}

// checker applies the output checks to every run and counts failures.
type checker struct {
	attempted, failed int
	want              map[int]string // reference digest per config index
	notes             []string
}

func newChecker() *checker { return &checker{want: map[int]string{}} }

// check records one run of config i. A run fails if it errored or panicked,
// recorded no operations, broke service conservation, or digests
// differently from the config's first run.
func (c *checker) check(label string, i int, res harness.Result, err error) {
	c.attempted++
	if msg := c.problem(i, res, err); msg != "" {
		c.failed++
		if len(c.notes) < 20 {
			c.notes = append(c.notes, fmt.Sprintf("FAILED %s (config %d): %s", label, i, msg))
		}
	}
}

func (c *checker) problem(i int, res harness.Result, err error) string {
	if err != nil {
		return err.Error()
	}
	if res.Ops <= 0 {
		return "no operations recorded"
	}
	if s := res.Svc; s != nil && s.TotalOffered != s.TotalServed+s.TotalShed {
		return fmt.Sprintf("offered %d != served %d + shed %d", s.TotalOffered, s.TotalServed, s.TotalShed)
	}
	d, err := digest(res)
	if err != nil {
		return err.Error()
	}
	if want, ok := c.want[i]; !ok {
		c.want[i] = d
	} else if d != want {
		return fmt.Sprintf("digest %s differs from %s", d, want)
	}
	return ""
}

// hostInfo is the provenance recorded with each result.
type hostInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Note       string `json:"note"`
}

func provenance(name string, seed int64, seconds, trace int) hostInfo {
	return hostInfo{Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Note: "medians over repetitions; BENCH_0006-0008 are best-of-N single-core events/sec and not comparable"}
}

func (h hostInfo) line() string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s",
		h.Workload, h.Seed, h.Seconds, h.Trace, h.NProc, h.GOMAXPROCS, h.GoVersion)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// peakRSSMiB reads the process's resident-memory high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }
