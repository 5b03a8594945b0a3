// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time, checks every output it produced, and prints
// its metrics; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics, from spans and counters taken
// in benchmark-side wrappers around each layer's public functions, plus
// the tracing overhead. README.md maps every metric to its layer and
// workload and says why each workload exists.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload native-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric. The two tables below are the source
// of BENCHMARK.json's end_to_end and per_layer lists (a test keeps them
// in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

var endToEnd = []metricDef{
	{"txn_per_s", "1/s", "higher"},
	{"svc_p50_us", "us", "lower"},
	{"svc_p90_us", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"mem_mb", "MiB", "lower"},
	{"ok_frac", "frac", "higher"},
}

var perLayer = func() []metricDef {
	m := []metricDef{
		{"native.atomic_p50_ns", "ns", "lower"},
		{"native.atomic_p99_ns", "ns", "lower"},
		{"native.self_ns_per_txn", "ns", "lower"},
		{"native.attempts_per_commit", "count", "lower"},
		{"native.aborts_validation", "1/kcommit", "lower"},
		{"native.aborts_lock", "1/kcommit", "lower"},
		{"native.escalations", "1/kcommit", "lower"},
		{"native.loads_per_txn", "count", "lower"},
		{"native.stores_per_txn", "count", "lower"},
		{"native.allocs_per_txn", "count", "lower"},
		{"service.body_ns_per_attempt", "ns", "lower"},
		{"service.reader_p90_us", "us", "lower"},
		{"service.writer_p90_us", "us", "lower"},
		{"service.sojourn_p99_us", "us", "lower"},
		{"service.sojourn_p999_us", "us", "lower"},
		{"workloads.populate_s", "s", "lower"},
		{"workloads.verify_s", "s", "lower"},
		{"gen.late_p50_us", "us", "lower"},
		{"gen.late_p99_us", "us", "lower"},
		{"gen.backlog_max", "count", "lower"},
		{"sim.ops_per_s", "1/s", "higher"},
		{"sim.cycles_per_txn", "cycles", "lower"},
		{"sim.handoff_frac", "frac", "lower"},
		{"sim.host_ns_per_grant", "ns", "lower"},
		{"sim.grants_per_txn", "count", "lower"},
		{"cache.l1_miss_frac", "frac", "lower"},
		{"cache.l2_miss_frac", "frac", "lower"},
		{"cache.invalidations", "count", "lower"},
		{"cache.back_invalidations", "count", "lower"},
		{"cache.marked_drops", "count", "lower"},
		{"cache.accesses_per_grant", "count", "lower"},
	}
	for _, s := range schemeLayers {
		for _, c := range cycleCategories {
			m = append(m, metricDef{s.layer + "." + c.String() + "_cycles_per_txn", "cycles", "lower"})
		}
		m = append(m, metricDef{s.layer + ".aborts_per_kcommit", "1/kcommit", "lower"})
	}
	return append(m,
		metricDef{"core.filtered_read_frac", "frac", "higher"},
		metricDef{"core.fast_validation_frac", "frac", "higher"},
		metricDef{"core.aggressive_commit_frac", "frac", "higher"},
		metricDef{"trace.txn_per_s_overhead", "frac", "lower"},
		metricDef{"trace.svc_p50_overhead", "frac", "lower"},
	)
}()

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed     uint64
	seconds  float64
	trace    bool
	spansDir string // traced runs write <workload>.spans.jsonl here; "" skips it
}

// result is one run's outcome. A traced run reports 0 for the per-layer
// metrics of layers its workload does not drive.
type result struct {
	correct   bool
	problems  []string
	attempted uint64
	failed    uint64
	values    map[string]float64
	layers    []string // per-layer metric prefixes the workload drives
}

func newResult(layers ...string) *result {
	return &result{correct: true, values: map[string]float64{}, layers: append(layers, "trace")}
}

func (r *result) drives(layer string) bool {
	for _, l := range r.layers {
		if l == layer {
			return true
		}
	}
	return false
}

// fail marks the run incorrect with a reason printed beside the result.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	why string
	run func(cfg runConfig) (*result, error)
}

var workloadTable = map[string]workload{
	"native-read": {
		why: "closed loop, 2 goroutines, native TL2 over a 16 MiB uniform bank (45% lookups, 50% scans, 5% transfers): the read barrier and read-only commit dominate",
		run: func(cfg runConfig) (*result, error) { return runBank(readBank, cfg) },
	},
	"native-bank-open": {
		why: "open loop at 400k req/s on the 4096-account Zipf bank (40% transfers): the writer commit path under a shared queue",
		run: func(cfg runConfig) (*result, error) { return runBank(openBank, cfg) },
	},
	"sim-4core": {
		why: "{stm,hastm,lazy} x {hashtable,bst,btree} at 4 simulated cores: scheduler handoffs dominate host time",
		run: func(cfg runConfig) (*result, error) { return runSim(sim4core, cfg) },
	},
	"sim-1core": {
		why: "the same nine cells at 1 core, 16384 ops: the cache model and TM barriers dominate, every grant runs inline",
		run: func(cfg runConfig) (*result, error) { return runSim(sim1core, cfg) },
	},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory for the traced run's JSONL spans (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadTable[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || math.IsInf(*seconds, 0) || math.IsNaN(*seconds) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spansDir}

	prov, err := json.Marshal(hostProvenance(cfg.seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s: %s\n", *name, wl.why)
	started := time.Now()
	res, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: run took %.1fs\n", time.Since(started).Seconds())

	// Every value goes to stderr for people; the selected set becomes the
	// result line.
	names := make([]string, 0, len(res.values))
	for n := range res.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %.6g\n", n, res.values[n])
	}
	set := endToEnd
	if cfg.trace {
		set = perLayer
	}
	metrics := make(map[string]map[string]any, len(set))
	for _, m := range set {
		v, ok := res.values[m.Name]
		if !ok {
			layer, _, _ := strings.Cut(m.Name, ".")
			if !cfg.trace || res.drives(layer) {
				res.fail("metric %s was not measured", m.Name)
			}
		}
		metrics[m.Name] = map[string]any{"value": finite(v), "unit": m.Unit}
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("provenance %s\n", prov)
	fmt.Println(string(line))
	if !res.correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloadTable))
	for n := range workloadTable {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// epoch anchors nanotime; set once at start-up and never written again.
var epoch = time.Now()

// nanotime is monotonic nanoseconds since the benchmark started.
func nanotime() int64 { return int64(time.Since(epoch)) }
