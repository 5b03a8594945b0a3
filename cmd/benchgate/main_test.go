package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: hastm.dev/hastm/internal/stm
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkReadBarrier-8  	     692	    300 ns/op	      56 B/op	       3 allocs/op
BenchmarkReadBarrier-8  	     700	    100 ns/op	      56 B/op	       3 allocs/op
BenchmarkReadBarrier-8  	     695	    200 ns/op	      56 B/op	       3 allocs/op
PASS
ok  	hastm.dev/hastm/internal/stm	0.8s
pkg: hastm.dev/hastm/internal/core
BenchmarkFilteredReadBarrier 	    2580	     80 ns/op	      32 B/op	       2 allocs/op
PASS
`

func TestParseBenchMedians(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	rb, ok := got["internal/stm/ReadBarrier"]
	if !ok {
		t.Fatalf("missing stm ReadBarrier key; have %v", got)
	}
	if rb.NsPerOp != 200 {
		t.Errorf("median ns/op = %v, want 200", rb.NsPerOp)
	}
	if rb.AllocsPerOp != 3 || rb.BytesPerOp != 56 || rb.Samples != 3 {
		t.Errorf("ReadBarrier entry = %+v", rb)
	}
	fb, ok := got["internal/core/FilteredReadBarrier"]
	if !ok || fb.NsPerOp != 80 || fb.AllocsPerOp != 2 {
		t.Errorf("FilteredReadBarrier entry = %+v ok=%v", fb, ok)
	}
}

// A benchmark that reports a custom metric prints it between ns/op and
// the -benchmem columns; allocs/op must still be read, or the allocation
// gate passes anything.
func TestParseBenchCustomMetricLine(t *testing.T) {
	const out = "pkg: hastm.dev/hastm/internal/native\n" +
		"BenchmarkNativeChaosOverhead/off-2    \t  189882\t      1099 ns/op\t    910265 txn/s\t     128 B/op\t       2 allocs/op\n"
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	e := got["internal/native/NativeChaosOverhead/off"]
	if e.NsPerOp != 1099 || e.BytesPerOp != 128 || e.AllocsPerOp != 2 || e.Samples != 1 {
		t.Errorf("NativeChaosOverhead/off entry = %+v, want 1099 ns/op, 128 B/op, 2 allocs/op", e)
	}
}

func baselineFor(entries map[string]BaselineEntry) *Baseline {
	return &Baseline{Schema: baselineSchema, Benchmarks: entries}
}

func TestCompareGates(t *testing.T) {
	base := map[string]BaselineEntry{
		"internal/stm/ReadBarrier":  {NsPerOp: 100, AllocsPerOp: 3},
		"internal/stm/WriteBarrier": {NsPerOp: 100, AllocsPerOp: 3},
	}

	// Identical numbers pass.
	if err := compare(baselineFor(base), base, 1.15); err != nil {
		t.Errorf("identical compare failed: %v", err)
	}

	// Small regression inside the margin passes.
	ok := map[string]BaselineEntry{
		"internal/stm/ReadBarrier":  {NsPerOp: 110, AllocsPerOp: 3},
		"internal/stm/WriteBarrier": {NsPerOp: 105, AllocsPerOp: 3},
	}
	if err := compare(baselineFor(base), ok, 1.15); err != nil {
		t.Errorf("within-margin compare failed: %v", err)
	}

	// Geomean regression beyond the margin fails.
	slow := map[string]BaselineEntry{
		"internal/stm/ReadBarrier":  {NsPerOp: 130, AllocsPerOp: 3},
		"internal/stm/WriteBarrier": {NsPerOp: 125, AllocsPerOp: 3},
	}
	if err := compare(baselineFor(base), slow, 1.15); err == nil {
		t.Error("geomean regression not detected")
	}

	// Any allocs/op increase fails even when ns/op is fine.
	alloc := map[string]BaselineEntry{
		"internal/stm/ReadBarrier":  {NsPerOp: 100, AllocsPerOp: 4},
		"internal/stm/WriteBarrier": {NsPerOp: 100, AllocsPerOp: 3},
	}
	if err := compare(baselineFor(base), alloc, 1.15); err == nil {
		t.Error("allocs/op increase not detected")
	} else if !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("unexpected error: %v", err)
	}

	// A baseline benchmark missing from the run fails (coverage loss).
	missing := map[string]BaselineEntry{
		"internal/stm/ReadBarrier": {NsPerOp: 100, AllocsPerOp: 3},
	}
	if err := compare(baselineFor(base), missing, 1.15); err == nil {
		t.Error("missing benchmark not detected")
	}
}
