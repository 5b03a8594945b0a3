// Command benchgate is a zero-dependency regression gate for `go test
// -bench` output. CI runs the barrier fast-path benchmarks with
// `-benchmem -count=5`, and benchgate compares the per-benchmark medians
// against the committed BENCH_baseline.json:
//
//   - it fails (exit 1) when the geometric-mean ns/op ratio across all
//     baseline benchmarks exceeds -max-ratio (default 1.15, i.e. >15%
//     slower), and
//   - it fails when ANY benchmark's allocs/op rises above its baseline —
//     the barrier fast paths are required to stay allocation-flat.
//
// Usage:
//
//	go test -bench . -benchmem -count=5 ./internal/stm ./internal/core ./internal/faults ./internal/sim > bench.txt
//	benchgate bench.txt                  # compare against BENCH_baseline.json
//	benchgate -write bench.txt           # regenerate the baseline
//	benchgate -baseline other.json -     # read bench output from stdin
//
// Medians over the -count repetitions absorb run-to-run noise; the 15%
// geomean margin absorbs the rest. Regenerate the baseline with -write
// after an intentional performance change and commit the result.
//
// With -native, benchgate instead gates the native-TL2 backend's
// service throughput: the input is a `hastm-bench -service -backend
// native -json` document, and the gated metric is each cell's
// txns_per_sec. Host throughput on shared CI runners is far noisier
// than a microbenchmark, so the tolerance is wide (default 30%) and
// only slowdowns fail — the geometric mean of current/baseline across
// all baseline cells must stay above 1 - tolerance:
//
//	go run ./cmd/hastm-bench -quick -service -backend native -json > svc.json
//	benchgate -native svc.json           # compare against BENCH_native_baseline.json
//	benchgate -native -write svc.json    # regenerate the native baseline
//
// Regenerate the native baseline the same way as the microbenchmark
// one: rerun the command above on the reference machine after an
// intentional performance change and commit the rewritten
// BENCH_native_baseline.json.
//
// -scale from:to:max adds a host-independent RELATIVE gate within one
// bench run: the median ns/op of benchmark `to` must stay within
// `max`× the median ns/op of benchmark `from`. Both names match by
// suffix against the parsed keys, so the package prefix can be
// omitted. This is how CI enforces simulator scalability — per-op
// host cost at 256 cores must not collapse relative to 16 cores —
// without baking an absolute number from one machine into the repo:
//
//	go test -bench 'SimOpsScale|DirCoherence' -benchmem -count=5 ./internal/sim > scale.txt
//	benchgate -scale SimOpsScale/16core:SimOpsScale/256core:2.0 \
//	          -scale DirCoherence/16core:DirCoherence/256core:2.0 scale.txt
//
// The flag repeats; with at least one -scale the baseline comparison
// is skipped unless -baseline is given explicitly, so the scale gate
// can run on benchmarks that are deliberately absent from
// BENCH_baseline.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BaselineEntry is one benchmark's committed reference numbers.
type BaselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	Samples     int     `json:"samples"`
}

// Baseline is the BENCH_baseline.json document.
type Baseline struct {
	Schema     string                   `json:"schema"`
	Note       string                   `json:"note,omitempty"`
	Benchmarks map[string]BaselineEntry `json:"benchmarks"`
}

const (
	baselineSchema       = "benchgate/1"
	nativeBaselineSchema = "benchgate/native/1"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "baseline file to compare against (or write); defaults to BENCH_baseline.json, or BENCH_native_baseline.json with -native")
		write        = flag.Bool("write", false, "regenerate the baseline from the bench output instead of comparing")
		maxRatio     = flag.Float64("max-ratio", 1.15, "maximum allowed geomean ns/op ratio (current/baseline)")
		nativeMode   = flag.Bool("native", false, "gate native-backend service txns_per_sec from hastm-bench JSON instead of bench text")
		tolerance    = flag.Float64("tolerance", 0.30, "-native: allowed geomean throughput drop (0.30 = 30% slower fails)")
		scales       scaleFlags
	)
	flag.Var(&scales, "scale", "relative gate `from:to:max` within this run: ns/op of `to` must be <= max * ns/op of `from` (repeatable; suffix-matches benchmark names; skips the baseline compare unless -baseline is set explicitly)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-write] [-baseline file] [-max-ratio r] [-scale from:to:max]... bench.txt|-\n       benchgate -native [-write] [-baseline file] [-tolerance t] svc.json|-")
		os.Exit(2)
	}
	scaleOnly := len(scales) > 0 && *baselinePath == "" && !*write && !*nativeMode
	if *baselinePath == "" {
		if *nativeMode {
			*baselinePath = "BENCH_native_baseline.json"
		} else {
			*baselinePath = "BENCH_baseline.json"
		}
	}

	var in io.Reader = os.Stdin
	if flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	if *nativeMode {
		runNativeGate(in, *baselinePath, *write, *tolerance)
		return
	}

	current, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(current) == 0 {
		fatal(fmt.Errorf("no benchmark results in input"))
	}

	if err := checkScales(scales, current); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %v\n", err)
		os.Exit(1)
	}
	if scaleOnly {
		fmt.Println("benchgate: PASS")
		return
	}

	if *write {
		if err := writeBaseline(*baselinePath, current); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(current), *baselinePath)
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	if err := compare(base, current, *maxRatio); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(2)
}

// scaleGate is one -scale from:to:max triple.
type scaleGate struct {
	from, to string
	max      float64
}

// scaleFlags collects repeated -scale flags.
type scaleFlags []scaleGate

func (s *scaleFlags) String() string {
	parts := make([]string, len(*s))
	for i, g := range *s {
		parts[i] = fmt.Sprintf("%s:%s:%g", g.from, g.to, g.max)
	}
	return strings.Join(parts, ",")
}

func (s *scaleFlags) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("want from:to:max, got %q", v)
	}
	max, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || max <= 0 {
		return fmt.Errorf("bad max ratio in %q", v)
	}
	*s = append(*s, scaleGate{from: parts[0], to: parts[1], max: max})
	return nil
}

// findBench resolves a -scale benchmark name against the parsed keys:
// an exact key, or a unique "/"-boundary suffix of one ("SimOpsScale/16core"
// matches "internal/sim/SimOpsScale/16core").
func findBench(name string, current map[string]BaselineEntry) (string, BaselineEntry, error) {
	if e, ok := current[name]; ok {
		return name, e, nil
	}
	var hits []string
	for k := range current {
		if strings.HasSuffix(k, "/"+name) {
			hits = append(hits, k)
		}
	}
	sort.Strings(hits)
	switch len(hits) {
	case 0:
		return "", BaselineEntry{}, fmt.Errorf("benchmark %q not found in bench output", name)
	case 1:
		return hits[0], current[hits[0]], nil
	default:
		return "", BaselineEntry{}, fmt.Errorf("benchmark %q is ambiguous: matches %s", name, strings.Join(hits, ", "))
	}
}

// checkScales enforces the same-run relative gates: ns/op(to) must stay
// within max × ns/op(from). Host-independent by construction — both
// medians come from the same machine and the same bench invocation.
func checkScales(gates scaleFlags, current map[string]BaselineEntry) error {
	var problems []string
	for _, g := range gates {
		fromKey, from, err := findBench(g.from, current)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		toKey, to, err := findBench(g.to, current)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		ratio := to.NsPerOp / from.NsPerOp
		verdict := "ok"
		if ratio > g.max {
			verdict = "FAIL"
			problems = append(problems,
				fmt.Sprintf("scale gate %s -> %s: ratio %.3f exceeds %.2f", fromKey, toKey, ratio, g.max))
		}
		fmt.Printf("scale %-60s %8.1f -> %8.1f ns/op  ratio %.3f (limit %.2f) %s\n",
			fromKey+" -> "+toKey, from.NsPerOp, to.NsPerOp, ratio, g.max, verdict)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// sample is one run of one benchmark.
type sample struct {
	nsPerOp     float64
	allocsPerOp uint64
	bytesPerOp  uint64
}

// result is one benchmark's median over its repetitions.
type result struct {
	entry   BaselineEntry
	samples int
}

// benchLine matches `BenchmarkName[-P]  iters  X ns/op`; the -benchmem
// columns follow any custom metrics (b.ReportMetric), so benchBytes and
// benchAllocs find them wherever they sit on the line.
var (
	benchLine   = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\S+) ns/op`)
	benchBytes  = regexp.MustCompile(`\s(\d+) B/op(?:\s|$)`)
	benchAllocs = regexp.MustCompile(`\s(\d+) allocs/op(?:\s|$)`)
)

// parseBench reads `go test -bench -benchmem` text output and returns the
// median result per benchmark, keyed "pkgsuffix/Name" (e.g.
// "internal/stm/ReadBarrier").
func parseBench(r io.Reader) (map[string]BaselineEntry, error) {
	samples := map[string][]sample{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			// Keep only the repo-relative tail ("internal/stm") so keys
			// survive a module rename.
			parts := strings.Split(rest, "/")
			if n := len(parts); n >= 2 {
				pkg = strings.Join(parts[n-2:], "/")
			} else {
				pkg = rest
			}
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		s := sample{nsPerOp: ns}
		if b := benchBytes.FindStringSubmatch(line); b != nil {
			s.bytesPerOp, _ = strconv.ParseUint(b[1], 10, 64)
		}
		if a := benchAllocs.FindStringSubmatch(line); a != nil {
			s.allocsPerOp, _ = strconv.ParseUint(a[1], 10, 64)
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		key := name
		if pkg != "" {
			key = pkg + "/" + name
		}
		samples[key] = append(samples[key], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := map[string]BaselineEntry{}
	for key, ss := range samples {
		out[key] = BaselineEntry{
			NsPerOp:     medianFloat(ss, func(s sample) float64 { return s.nsPerOp }),
			AllocsPerOp: medianUint(ss, func(s sample) uint64 { return s.allocsPerOp }),
			BytesPerOp:  medianUint(ss, func(s sample) uint64 { return s.bytesPerOp }),
			Samples:     len(ss),
		}
	}
	return out, nil
}

func medianFloat(ss []sample, f func(sample) float64) float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = f(s)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func medianUint(ss []sample, f func(sample) uint64) uint64 {
	vs := make([]uint64, len(ss))
	for i, s := range ss {
		vs[i] = f(s)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs[len(vs)/2]
}

func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if b.Schema != baselineSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, b.Schema, baselineSchema)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &b, nil
}

func writeBaseline(path string, current map[string]BaselineEntry) error {
	doc := Baseline{
		Schema:     baselineSchema,
		Note:       "medians of `go test -bench . -benchmem -count=5 ./internal/stm ./internal/core ./internal/faults ./internal/sim`; regenerate with `go run ./cmd/benchgate -write bench.txt`",
		Benchmarks: current,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare fails on a >maxRatio geomean ns/op regression across the
// baseline's benchmarks, on any allocs/op increase, or on a baseline
// benchmark missing from the current run.
func compare(base *Baseline, current map[string]BaselineEntry, maxRatio float64) error {
	keys := make([]string, 0, len(base.Benchmarks))
	for k := range base.Benchmarks {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var problems []string
	logRatioSum := 0.0
	fmt.Printf("%-42s %12s %12s %7s %10s\n", "benchmark", "base ns/op", "cur ns/op", "ratio", "allocs/op")
	for _, k := range keys {
		b := base.Benchmarks[k]
		c, ok := current[k]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: in baseline but missing from bench output", k))
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		logRatioSum += math.Log(ratio)
		allocs := fmt.Sprintf("%d -> %d", b.AllocsPerOp, c.AllocsPerOp)
		fmt.Printf("%-42s %12.0f %12.0f %7.3f %10s\n", k, b.NsPerOp, c.NsPerOp, ratio, allocs)
		if c.AllocsPerOp > b.AllocsPerOp {
			problems = append(problems,
				fmt.Sprintf("%s: allocs/op rose %d -> %d (fast paths must stay allocation-flat)",
					k, b.AllocsPerOp, c.AllocsPerOp))
		}
	}
	for k := range current {
		if _, ok := base.Benchmarks[k]; !ok {
			fmt.Printf("%-42s %12s (new; not in baseline — regenerate with -write)\n", k, "-")
		}
	}

	matched := 0
	for _, k := range keys {
		if _, ok := current[k]; ok {
			matched++
		}
	}
	if matched > 0 {
		geomean := math.Exp(logRatioSum / float64(matched))
		fmt.Printf("geomean ns/op ratio: %.3f (limit %.2f)\n", geomean, maxRatio)
		if geomean > maxRatio {
			problems = append(problems,
				fmt.Sprintf("geomean ns/op ratio %.3f exceeds %.2f", geomean, maxRatio))
		}
	}

	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}
