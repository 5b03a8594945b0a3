package harness

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// The chaos-storm suite is the native analogue of the faultstorm
// (faultrun.go): every §7.1 structure driven by the content-commutative
// differential op mix on host goroutines, with the native chaos plane
// injecting stalls, preemption bursts, spurious commit aborts and delayed
// wakeups, and the host watchdogs scanning for wedged stripes and commit
// stalls. Each cell verifies the structure invariants, replays its
// committed-op log through the sequential oracle, and compares its content
// fingerprint against a chaos-free twin of the same configuration —
// injections may perturb timing and abort counts, never committed state.

// ChaosRecord is the per-cell chaos block of the hastm-bench/9 JSON
// schema: the armed spec, the planned-schedule FNV-1a hash (a pure
// function of seed × thread id × per-thread transaction index, so it is
// byte-identical across runs of one configuration), and the per-kind
// planned/fired injection counts. Fired can lag planned: an injection
// planned for a commit point the attempt never reaches (a read-only
// commit has no write-back) lapses instead of firing.
type ChaosRecord struct {
	Spec string `json:"spec"`
	// ScheduleHash is the deterministic planned-schedule hash, rendered as
	// 16 hex digits so JSON consumers never round it through a float.
	ScheduleHash string            `json:"schedule_hash"`
	ScheduleLen  int               `json:"schedule_len"`
	Planned      map[string]uint64 `json:"planned"`
	Fired        map[string]uint64 `json:"fired"`
	// Violation is the host watchdog violation observed during the run, if
	// any (also surfaced as the cell error).
	Violation string `json:"violation,omitempty"`
}

// InjectedString renders the fired counts in fixed kind order
// (deterministic, unlike iterating the Fired map).
func (r *ChaosRecord) InjectedString() string {
	if r == nil {
		return "none"
	}
	var parts []string
	for _, k := range []string{"stall", "preempt", "abort", "wakedelay"} {
		if n := r.Fired[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// chaosRecord converts the native plane's report into the JSON block; nil
// in, nil out (chaos not armed).
func chaosRecord(rep *native.ChaosReport, health error) *ChaosRecord {
	if rep == nil {
		return nil
	}
	r := &ChaosRecord{
		Spec:         rep.Spec,
		ScheduleHash: fmt.Sprintf("%016x", rep.ScheduleHash),
		ScheduleLen:  rep.ScheduleLen,
		Planned:      rep.Planned,
		Fired:        rep.Fired,
	}
	if health != nil {
		r.Violation = health.Error()
	}
	return r
}

// ChaosStormReport is the outcome of one chaos-storm cell: what was
// injected, what committed, and whether the final structure content
// survived both the sequential oracle and the chaos-free-twin comparison.
type ChaosStormReport struct {
	Workload string
	Threads  int

	Committed int
	Chaos     *ChaosRecord
	// Baseline and Fingerprint are the content fingerprints of the
	// chaos-free twin and the chaos run; the diff mix is
	// content-commutative, so they must be equal.
	Baseline    uint64
	Fingerprint uint64

	Err string // "" = invariants, oracle and twin comparison all passed
}

// Verdict renders the cell outcome for tables.
func (r ChaosStormReport) Verdict() string {
	if r.Err == "" {
		return "ok"
	}
	return "FAIL: " + r.Err
}

// runNativeDiff drives one native differential cell — chaos per spec,
// watchdogs armed — and returns its metrics, content fingerprint and
// committed-op count. The returned error covers watchdog trips, thread
// failures, invariant violations and oracle mismatches.
func runNativeDiff(workload string, threads int, o Options, spec native.ChaosSpec) (RunMetrics, uint64, int, error) {
	m := mem.New()
	ds := buildStructure(workload, m, o)
	ds.Populate(m, workloads.NewRand(o.Seed))
	rb := o.RetryBudget
	if rb == 0 {
		rb = IrrevocableDefaultBudget
	}
	sys := native.New(m, native.Config{
		TM:      tm.Config{Progress: tm.Progress{RetryBudget: rb}},
		Threads: threads,
		Chaos:   spec,
	})
	sys.StartWatchdog()

	per := o.Ops / threads
	if per == 0 {
		per = 1
	}
	log := workloads.NewOpLog()
	errs := make([]error, threads)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cfg := workloads.DriverConfig{Ops: per, UpdatePercent: 50, Seed: o.Seed}
			errs[id] = workloads.RunDiffThread(sys.Thread(id), ds, cfg, log)
		}(g)
	}
	wg.Wait()
	hostNS := time.Since(start).Nanoseconds()
	sys.StopWatchdog()

	metrics := RunMetrics{
		Stats:   sys.Stats(),
		Telem:   sys.Telemetry(),
		HostNS:  hostNS,
		Backend: sys.Name(),
		Chaos:   chaosRecord(sys.ChaosReport(), sys.CheckHealth()),
	}
	if err := sys.CheckHealth(); err != nil {
		return metrics, 0, log.Len(), err
	}
	for id, err := range errs {
		if err != nil {
			return metrics, 0, log.Len(), fmt.Errorf("thread %d: %w", id, err)
		}
	}
	rep, err := workloads.VerifyDiffOracle(ds, m, func(m2 *mem.Memory) workloads.DataStructure {
		return buildStructure(workload, m2, o)
	}, o.Seed, log)
	return metrics, rep.RunFingerprint, log.Len(), err
}

// ChaosStormRun executes one chaos-storm cell: a chaos-free twin first
// (same seed, plane off) to pin the expected content fingerprint, then the
// chaos run proper. Verdict failures land in ChaosStormReport.Err (not the
// error return, which covers configuration problems), so a sweep collects
// every verdict.
func ChaosStormRun(workload string, threads int, o Options, spec native.ChaosSpec) (ChaosStormReport, RunMetrics, error) {
	rep := ChaosStormReport{Workload: workload, Threads: threads}
	if threads < 1 {
		return rep, RunMetrics{}, fmt.Errorf("threads must be >= 1, got %d", threads)
	}
	switch workload {
	case WorkloadHash, WorkloadBST, WorkloadBTree:
	default:
		return rep, RunMetrics{}, fmt.Errorf("unknown workload %q", workload)
	}
	_, base, _, err := runNativeDiff(workload, threads, o, native.ChaosSpec{})
	if err != nil {
		rep.Err = fmt.Sprintf("chaos-free twin: %v", err)
		return rep, RunMetrics{}, nil
	}
	rep.Baseline = base

	metrics, fp, committed, err := runNativeDiff(workload, threads, o, spec)
	rep.Fingerprint = fp
	rep.Committed = committed
	rep.Chaos = metrics.Chaos
	if err != nil {
		rep.Err = err.Error()
		return rep, metrics, nil
	}
	if fp != base {
		rep.Err = fmt.Sprintf("content fingerprint %016x diverged from chaos-free twin %016x", fp, base)
	}
	return rep, metrics, nil
}

// ChaosStormPlan builds the chaos-storm sweep — every §7.1 structure under
// spec on `threads` goroutines — as a Plan whose cells run on the standard
// worker pool. Verdicts land in the returned slots in cell declaration
// order; the Plan's Assemble produces no figure report.
func ChaosStormPlan(spec native.ChaosSpec, o Options, threads int) (*Plan, []*ChaosStormReport) {
	p := newPlan("chaosstorm")
	var reports []*ChaosStormReport
	for _, workload := range Workloads() {
		slot := &ChaosStormReport{}
		reports = append(reports, slot)
		w := workload
		p.cell(fmt.Sprintf("chaos/%s/%d", w, threads), func() RunMetrics {
			rep, m, err := ChaosStormRun(w, threads, o, spec)
			if err != nil {
				rep.Err = err.Error()
			}
			*slot = rep
			return m
		})
	}
	p.Assemble = func() *Report { return nil }
	return p, reports
}
