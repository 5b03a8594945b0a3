package harness

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// The native runner drives the host-goroutine TL2 backend through the same
// workload cells as the simulator figures, but measures real wall-clock
// throughput instead of simulated cycles. Nothing here is deterministic —
// host numbers belong on the same axis as HostMS, never next to WallCycles
// — so the native plan is its own figure ("native") rather than a scheme
// row inside the paper's figures.

// NativeThreadCounts is the host-goroutine sweep of the native throughput
// suite. Counts above the machine's core count oversubscribe, which is
// deliberate: commit-time lock conflicts under preemption are exactly what
// the contention policies must survive.
var NativeThreadCounts = []int{1, 2, 4, 8, 16, 32}

// RunOneNative runs one native-backend cell: populate the structure, warm
// up, then measure each of `threads` goroutines driving o.Ops operations
// (updatePct% updates). Unlike the simulator cells — which split o.Ops
// across cores so the science is core-count-invariant — every native
// goroutine runs the full o.Ops, because the subject here is throughput
// scaling and per-thread work must not shrink as the sweep widens.
func RunOneNative(workload string, threads int, o Options, updatePct int) (RunMetrics, error) {
	if threads < 1 {
		return RunMetrics{}, fmt.Errorf("threads must be >= 1, got %d", threads)
	}
	switch workload {
	case WorkloadHash, WorkloadBST, WorkloadBTree, WorkloadObjBST:
	default:
		return RunMetrics{}, fmt.Errorf("unknown workload %q", workload)
	}

	m := mem.New()
	ds := buildStructure(workload, m, o)
	ds.Populate(m, workloads.NewRand(o.Seed))
	sys := native.New(m, native.Config{
		TM:      tm.Config{Progress: tm.Progress{RetryBudget: o.RetryBudget}},
		Threads: threads,
		Chaos:   o.Chaos,
	})
	sys.StartWatchdog()

	warm := o.Warmup
	if warm == 0 {
		warm = o.Ops / 4
		if warm < 64 {
			warm = 64
		}
	}
	perWarm := warm / threads
	if perWarm == 0 {
		perWarm = 1
	}

	// Warmup, then a barrier: the coordinator resets the counters so the
	// report describes steady state only, stamps the measured phase's wall
	// time, and releases every goroutine at once.
	var ready, wg sync.WaitGroup
	goCh := make(chan struct{})
	errs := make([]error, threads)
	ready.Add(threads)
	wg.Add(threads)
	for g := 0; g < threads; g++ {
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			wcfg := workloads.DriverConfig{Ops: perWarm, UpdatePercent: updatePct, Seed: o.Seed + 7777}
			err := workloads.RunThread(th, ds, wcfg)
			ready.Done() // always check in, or the coordinator deadlocks
			if err != nil {
				errs[id] = fmt.Errorf("warmup: %w", err)
				return
			}
			<-goCh
			mcfg := workloads.DriverConfig{Ops: o.Ops, UpdatePercent: updatePct, Seed: o.Seed}
			errs[id] = workloads.RunThread(th, ds, mcfg)
		}(g)
	}
	ready.Wait()
	sys.Stats().Reset()
	sys.Telemetry().Reset()
	start := time.Now()
	close(goCh)
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
	// A watchdog trip outranks the per-thread errors it caused: report the
	// structured violation, not the unwound transactions' view of it.
	if err := sys.CheckHealth(); err != nil {
		return metrics, fmt.Errorf("native %s: %w", workload, err)
	}
	for id, err := range errs {
		if err != nil {
			return metrics, fmt.Errorf("native %s thread %d: %w", workload, id, err)
		}
	}
	return metrics, nil
}

// NativePlan builds the native throughput figure: every standard workload
// swept over threadCounts, 20% updates as in the paper's structure cells.
// The assembled table reports committed transactions per second.
func NativePlan(o Options, threadCounts []int) *Plan {
	p := newPlan("native")
	var rows []cellRow
	for _, w := range Workloads() {
		w := w
		row := cellRow{name: w}
		for _, n := range threadCounts {
			n := n
			c := p.cell(fmt.Sprintf("native/%s/%d", w, n), func() RunMetrics {
				m, err := RunOneNative(w, n, o, 20)
				if err != nil {
					panic(fmt.Sprintf("harness: %v", err))
				}
				return m
			})
			row.cells = append(row.cells, c)
		}
		rows = append(rows, row)
	}
	cols := make([]string, len(threadCounts))
	for i, n := range threadCounts {
		cols[i] = strconv.Itoa(n)
	}
	p.Assemble = func() *Report {
		tbl := Table{Name: "throughput", ColHeader: "threads", Unit: "Mtxn/s", Cols: cols}
		for _, r := range rows {
			row := Row{Name: r.name}
			for _, c := range r.cells {
				row.Cells = append(row.Cells, c.Metrics().TxnsPerSec()/1e6)
			}
			tbl.Rows = append(tbl.Rows, row)
		}
		return &Report{
			ID:     "native",
			Title:  "Native TL2 backend host throughput",
			Notes:  "committed txns/sec on host goroutines and real memory; host-dependent, not comparable to simulated figures",
			Tables: []Table{tbl},
		}
	}
	return p
}

// TxnsPerSec returns the run's committed-transaction rate, or 0 when the
// run carries no host-side measured-phase timing (every simulator cell).
func (m RunMetrics) TxnsPerSec() float64 {
	if m.HostNS <= 0 || m.Stats == nil {
		return 0
	}
	return float64(m.Stats.Commits()) / (float64(m.HostNS) / 1e9)
}
