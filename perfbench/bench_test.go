package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"hastm.dev/hastm/internal/service"
)

func TestScheduleIsPureFunctionOfSeedAndRate(t *testing.T) {
	gen := func(seed uint64, rate float64) []int64 {
		s := make([]int64, 20000)
		fillSchedule(s, seed, rate)
		return s
	}
	a, b := gen(7, 400_000), gen(7, 400_000)
	if !slices.Equal(a, b) {
		t.Fatal("same seed and rate gave two schedules")
	}
	if slices.Equal(a, gen(8, 400_000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !slices.IsSorted(a) {
		t.Fatal("due times are not in order")
	}
	// A prefix does not depend on the schedule's length.
	short := make([]int64, 100)
	fillSchedule(short, 7, 400_000)
	if !slices.Equal(short, a[:100]) {
		t.Fatal("schedule prefix depends on its length")
	}
	// Halving the rate doubles every gap's scale: same draws, same shape.
	slow := gen(7, 200_000)
	for i := range a {
		if d := slow[i] - 2*a[i]; d < -2 || d > 2 {
			t.Fatalf("due %d: %d at half rate, want about %d", i, slow[i], 2*a[i])
		}
	}
	mean := float64(a[len(a)-1]) / float64(len(a))
	if mean < 2400 || mean > 2600 {
		t.Fatalf("mean gap %.0f ns at 400k/s, want about 2500", mean)
	}
}

func TestPercentileExactRank(t *testing.T) {
	xs := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		permille int
		want     int64
	}{
		{1, 1}, {100, 1}, {101, 2}, {500, 5}, {501, 6}, {900, 9}, {901, 10}, {990, 10}, {1000, 10},
	} {
		if got := percentile(xs, c.permille); got != c.want {
			t.Errorf("p%.1f of 1..10 = %d, want %d", float64(c.permille)/10, got, c.want)
		}
	}
	if got := percentile([]int64{42}, 990); got != 42 {
		t.Errorf("p99 of one sample = %d, want 42", got)
	}
	if got := percentile([]int64(nil), 500); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want the lower middle 2", got)
	}
}

// smallBank is a quick contended bank for tests.
var smallBank = bankSpec{
	name: "test",
	cfg:  service.BankConfig{Keys: 256, Slots: 1024, ZipfS: 0.99, ReadPct: 50, TransferPct: 40, ScanLen: 8},
}

func newTestRun(t testing.TB, spec bankSpec, trace bool) *bankRun {
	t.Helper()
	cfg := runConfig{seed: 11, seconds: 0.4, trace: trace}
	rig, _, _, err := buildBank(spec, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	run, err := newBankRun(spec, cfg, rig)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(run.close)
	return run
}

func TestWrappedAndUnwrappedRunsCommitVerifiedState(t *testing.T) {
	open := smallBank
	open.rate = 50_000
	for _, spec := range []bankSpec{smallBank, open} {
		run := newTestRun(t, spec, true)
		plain := run.phase(0.2, false, 0)
		traced := run.phase(0.2, true, 1)
		if plain.committed == 0 || traced.committed == 0 {
			t.Fatalf("rate %v: committed %d untraced, %d traced", spec.rate, plain.committed, traced.committed)
		}
		var writers int
		for _, w := range run.ws {
			writers += w.nrecs
			if w.tt.tr.requests == 0 {
				t.Errorf("rate %v: worker %d traced no requests", spec.rate, w.id)
			}
		}
		if writers == 0 {
			t.Fatalf("rate %v: no writer committed; the oracle would check nothing", spec.rate)
		}
		res := newResult()
		verifyBank(res, spec, run.cfg, run)
		if !res.correct {
			t.Fatalf("rate %v: %v", spec.rate, res.problems)
		}
	}
}

// TestOracleCatchesALostWrite shows the check bites: dropping one
// committed writer from the log must fail verification.
func TestOracleCatchesALostWrite(t *testing.T) {
	run := newTestRun(t, smallBank, false)
	run.phase(0.1, false, 0)
	w := run.ws[0]
	if w.nrecs == 0 {
		t.Skip("no writer committed")
	}
	w.nrecs--
	res := newResult()
	verifyBank(res, smallBank, run.cfg, run)
	if res.correct {
		t.Fatal("verification passed with a committed writer missing from the log")
	}
}

// TestRequestPathAllocatesNothing: the benchmark's own request path, with
// and without the tracing wrappers, adds no allocation to a read-only
// request (which allocates nothing in the program either).
func TestRequestPathAllocatesNothing(t *testing.T) {
	spec := smallBank
	spec.cfg.ReadPct, spec.cfg.TransferPct = 100, 0
	run := newTestRun(t, spec, true)
	w := run.ws[0]
	for _, traced := range []bool{false, true} {
		w.call, w.tracing = w.th, traced
		if traced {
			w.call = w.tt
		}
		req := uint64(0)
		allocs := testing.AllocsPerRun(1000, func() {
			req++
			if _, err := w.issue(req, opSeed(1, req), req%spanEvery == 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("traced=%v: %.2f allocations per request, want 0", traced, allocs)
		}
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	if !slices.Equal(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the benchmark's table:\n%v\n%v", bj.EndToEnd, endToEnd)
	}
	if !slices.Equal(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the benchmark's table:\n%v\n%v", bj.PerLayer, perLayer)
	}
}

func BenchmarkRequest(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			run := newTestRun(b, readBank, true)
			w := run.ws[0]
			w.call, w.tracing = w.th, traced
			if traced {
				w.call = w.tt
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := uint64(i)
				if _, err := w.issue(req, opSeed(1, req), req%spanEvery == 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
