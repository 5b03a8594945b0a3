package harness

import (
	"fmt"
	"slices"
	"time"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/core"
	"hastm.dev/hastm/internal/htm"
	"hastm.dev/hastm/internal/locksync"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stats"
	"hastm.dev/hastm/internal/stm"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// Options tunes experiment sizes so the full evaluation (CLI) and the
// quick benchmarks (go test -bench) share one implementation.
type Options struct {
	// Ops is the total number of data-structure operations per run,
	// divided among the threads.
	Ops int
	// MicroTxns is the number of microbenchmark transactions per run.
	MicroTxns int
	// Warmup is the number of pre-measurement operations used to reach
	// cache and mode-controller steady state; 0 means Ops/4 (min 64).
	Warmup int
	// Structure sizes.
	HashSlots, TreeKeys uint64
	Seed                uint64
	// DefaultISA runs the experiment on a machine implementing only the
	// Section 3.3 default behaviour of the mark instructions.
	DefaultISA bool
	// TraceMax, if positive, attaches a transaction-level event trace to
	// the run (RunMetrics.Trace).
	TraceMax int
	// TxnTraceMax, if positive, attaches a per-transaction JSONL event
	// buffer (begin/commit/abort-with-cause, txn id, retry index) holding
	// at most this many events to every run (RunMetrics.TxnTrace); the
	// hastm-bench -trace flag sets it.
	TxnTraceMax int
	// ReferenceScheduler runs every cell on the simulator's original
	// per-operation handoff scheduler instead of the grant-lease scheduler.
	// Simulated results are identical either way (the scheduler
	// differential suite proves it); the switch exists for A/B host-perf
	// measurement and as the safety net behind the fast path.
	ReferenceScheduler bool
	// WatchdogWindow, when positive, arms the simulator's commit-progress
	// watchdog: if no transaction commits on any core for this many
	// simulated cycles, the run fails with a diagnosable
	// sim.ProgressViolation instead of spinning forever.
	WatchdogWindow uint64
	// CycleBudget, when positive, is a hard per-run ceiling on the
	// simulated clock; exceeding it fails the run with a ProgressViolation.
	CycleBudget uint64
	// StallTimeout, when positive, arms the host-deadlock detector: if the
	// simulator grants no architectural operation for this much host wall
	// time, the run is declared wedged and fails with a report instead of
	// hanging the process. This is the only host-time-keyed knob; it never
	// affects simulated results, only whether a wedged run is cut short.
	StallTimeout time.Duration
	// RetryBudget, when positive, enables the irrevocable escalation
	// ladder on the transactional schemes: a transaction that aborts
	// RetryBudget times escalates to serial irrevocable mode (global token,
	// no abort path), which bounds retries under adversarial contention.
	// 0 leaves the ladder off — the standard figure configuration.
	RetryBudget int
	// Topology, when non-zero, sizes every machine at Sockets ×
	// CoresPerSocket cores with per-socket L2s, directory coherence and
	// NUMA latencies, independent of the cell's thread count; threads are
	// placed on cores by Mapping and must fit (threads ≤ total cores). The
	// zero value keeps the flat machine whose core count equals the thread
	// count. Topology{1, N} is byte-identical to the flat N-core machine
	// (the 1-socket equivalence suite asserts it).
	Topology sim.Topology
	// Mapping places threads onto a multi-socket Topology's cores:
	// MapCompact ("" or "compact", the default) fills sockets in core
	// order, MapScatter ("scatter") round-robins threads across sockets.
	// Irrelevant on a flat machine and at full occupancy, where the two
	// policies coincide.
	Mapping string
	// Placement picks the page→home-socket policy on a multi-socket
	// Topology: interleaved (default) or first-touch. A miss that reaches
	// memory on a remote-homed page pays the remote-memory latency.
	Placement mem.Placement
	// Chaos arms the native backend's fault-injection plane on native
	// cells: seeded stalls, preemption bursts, spurious commit aborts and
	// delayed wakeups at named commit-protocol points (the -chaos flag).
	// The zero value leaves the plane off. Simulator cells ignore it — the
	// CLI maps -chaos onto the simulator's own fault plane instead.
	Chaos native.ChaosSpec
}

// Thread-mapping policy names (Options.Mapping).
const (
	MapCompact = "compact"
	MapScatter = "scatter"
)

// ParseMapping normalises a thread-mapping policy name ("" means compact).
func ParseMapping(s string) (string, error) {
	switch s {
	case "", MapCompact:
		return MapCompact, nil
	case MapScatter:
		return MapScatter, nil
	default:
		return "", fmt.Errorf("unknown thread mapping %q (want compact or scatter)", s)
	}
}

// machineCores returns the core count of the machine a cell with the given
// thread count runs on: the topology's total when one is set, else the
// thread count itself (the flat machine).
func (o Options) machineCores(threads int) int {
	if o.Topology == (sim.Topology{}) {
		return threads
	}
	return o.Topology.Sockets * o.Topology.CoresPerSocket
}

// threadCore returns the machine core hosting the given thread. Compact
// fills sockets in core order (thread t → core t); scatter deals threads
// round-robin across sockets (thread t → socket t mod S, next free core
// there). Thread 0 lands on core 0 under both policies, so the barrier
// core that resets statistics is mapping-independent.
func (o Options) threadCore(thread int) int {
	t := o.Topology
	if t.Sockets <= 1 || o.Mapping != MapScatter {
		return thread
	}
	return (thread%t.Sockets)*t.CoresPerSocket + thread/t.Sockets
}

// DefaultOptions returns the full-size evaluation parameters.
func DefaultOptions() Options {
	return Options{
		Ops:       2048,
		MicroTxns: 24,
		HashSlots: 4096,
		TreeKeys:  2048,
		Seed:      1,
	}
}

// QuickOptions returns reduced sizes for unit tests and testing.B benches.
func QuickOptions() Options {
	return Options{
		Ops:       384,
		MicroTxns: 8,
		HashSlots: 256,
		TreeKeys:  128,
		Seed:      1,
	}
}

// machineFor builds the standard simulated machine of the evaluation:
// 32 KB 8-way private L1s, a 512 KB 8-way shared inclusive L2, and the
// next-line prefetcher that §7.4 identifies as a source of destructive
// interference between cores. o contributes only host-side and ISA-mode
// switches (DefaultISA, ReferenceScheduler), never sizes.
func machineFor(cores int, o Options) *sim.Machine {
	cfg := sim.DefaultConfig(o.machineCores(cores))
	if o.Topology != (sim.Topology{}) {
		if cores > cfg.Cores {
			panic(fmt.Sprintf("harness: topology %s has %d cores, cell needs %d threads",
				o.Topology, cfg.Cores, cores))
		}
		cfg.Topology = o.Topology
		cfg.Placement = o.Placement
	}
	cfg.DefaultISA = o.DefaultISA
	cfg.ReferenceScheduler = o.ReferenceScheduler
	cfg.WatchdogWindow = o.WatchdogWindow
	cfg.CycleBudget = o.CycleBudget
	cfg.StallTimeout = o.StallTimeout
	cfg.L1 = cache.Config{SizeBytes: 32 << 10, Assoc: 8}
	// The shared inclusive L2 is deliberately smaller than the combined
	// footprint of the structures and the transaction-record table: the
	// §7.4 destructive interference (one core's misses and prefetches
	// back-invalidating another core's marked lines) requires L2
	// replacement pressure to exist at all.
	cfg.L2 = cacheConfig256K()
	// The machine is identical at every core count — baselines must not
	// run on different hardware. The speculation noise (§7.4) only
	// disturbs OTHER cores, so it is naturally inert single-threaded.
	cfg.Prefetch = true
	cfg.SpecRFOEvery = 32
	return sim.New(cfg)
}

// cacheConfig256K is the evaluation's shared-L2 geometry.
func cacheConfig256K() cache.Config { return cache.Config{SizeBytes: 256 << 10, Assoc: 8} }

// Scheme names used throughout the harness.
const (
	SchemeSeq      = "seq"
	SchemeLock     = "lock"
	SchemeSTM      = "stm"
	SchemeHASTM    = "hastm"
	SchemeCautious = "hastm-cautious"
	SchemeNoReuse  = "hastm-noreuse"
	SchemeNaive    = "naive-aggressive"
	SchemeHyTM     = "hytm"
	SchemeHTM      = "htm"
	// SchemeLazy is the deferred-update STM: per-transaction write buffer,
	// commit-time ascending-order lock acquisition, sandboxed read-set
	// validation before write-back (package stm's deferred-buffer policy).
	SchemeLazy = "lazy"
	// SchemeMVCC is the multi-version variant of SchemeLazy: a commit clock
	// and per-location version history give read-only transactions an
	// abort-free snapshot read path.
	SchemeMVCC = "mvcc"
)

// SchemeIrrevocable is HASTM with the escalation ladder armed at a fixed
// retry budget — the ext-irrevocable ablation's subject. On the standard
// figure workloads the budget never trips, so it must match plain HASTM.
const SchemeIrrevocable = "hastm-irrevocable"

// IrrevocableDefaultBudget is the ladder budget the hastm-irrevocable
// scheme (and the adversarial suite) uses when Options.RetryBudget is 0.
const IrrevocableDefaultBudget = 8

// Schemes lists every scheme name RunOne accepts.
func Schemes() []string {
	return []string{
		SchemeSeq, SchemeLock, SchemeSTM, SchemeHASTM, SchemeCautious,
		SchemeNoReuse, SchemeNaive, SchemeHyTM, SchemeHTM,
		SchemeWFilter, SchemeInterAtomic, SchemeObjHASTM, SchemeObjSTM, SchemeWatermark,
		SchemeIrrevocable, SchemeLazy, SchemeMVCC,
	}
}

// stmObject builds the base STM at object granularity.
func stmObject(m *sim.Machine) tm.System {
	return stm.New(m, tm.Config{Granularity: tm.ObjectGranularity, ValidateEvery: 128})
}

// buildScheme instantiates a scheme on a machine. threads is the number of
// worker threads the run will use (the HASTM watermark controller treats
// single-threaded runs specially, §6). o contributes only the escalation
// ladder's retry budget, never sizes.
func buildScheme(name string, m *sim.Machine, threads int, o Options) tm.System {
	stmCfg := tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 128}
	stmCfg.Progress.RetryBudget = o.RetryBudget
	hastmCfg := core.DefaultConfig(tm.LineGranularity)
	hastmCfg.SingleThread = threads == 1
	hastmCfg.TM.Progress.RetryBudget = o.RetryBudget
	switch name {
	case SchemeSeq:
		return locksync.NewSeq(m)
	case SchemeLock:
		return locksync.NewLock(m)
	case SchemeSTM:
		return stm.New(m, stmCfg)
	case SchemeHASTM:
		return core.New(m, hastmCfg)
	case SchemeCautious:
		return core.NewCautious(m, hastmCfg)
	case SchemeNoReuse:
		return core.NewNoReuse(m, hastmCfg)
	case SchemeNaive:
		return core.NewNaiveAggressive(m, hastmCfg)
	case SchemeHyTM:
		return htm.NewHyTM(m, stmCfg, 4)
	case SchemeHTM:
		return htm.NewHTM(m)
	case SchemeLazy:
		return stm.NewLazy(m, stmCfg)
	case SchemeMVCC:
		return stm.NewMVCC(m, stmCfg)
	default:
		panic(fmt.Sprintf("harness: unknown scheme %q", name))
	}
}

// Structure names.
const (
	WorkloadHash   = "hashtable"
	WorkloadBST    = "bst"
	WorkloadBTree  = "btree"
	WorkloadObjBST = "objbst"
)

// Workloads lists the three §7.1 data structures.
func Workloads() []string { return []string{WorkloadBST, WorkloadHash, WorkloadBTree} }

func buildStructure(name string, m *mem.Memory, o Options) workloads.DataStructure {
	switch name {
	case WorkloadHash:
		return workloads.NewHashtable(m, o.HashSlots)
	case WorkloadBST:
		return workloads.NewBST(m, o.TreeKeys)
	case WorkloadBTree:
		return workloads.NewBTree(m, o.TreeKeys)
	case WorkloadObjBST:
		return workloads.NewObjBST(m, o.TreeKeys)
	default:
		panic(fmt.Sprintf("harness: unknown workload %q", name))
	}
}

// RunMetrics is the outcome of one measured run.
type RunMetrics struct {
	WallCycles uint64
	Stats      *stats.Machine
	CacheStats *cache.Hierarchy
	Telem      *telemetry.Machine
	Trace      *sim.TraceBuffer       // non-nil when Options.TraceMax > 0
	TxnTrace   *telemetry.TraceBuffer // non-nil when Options.TxnTraceMax > 0
	// Sched counts how the simulator scheduled the run's architectural
	// operations (granted ops vs channel handoffs). Host-side observability
	// only: deliberately outside Stats/Telem, because it legitimately
	// differs between the lease and reference schedulers while every
	// simulated result stays identical.
	Sched sim.SchedCounters
	// HostNS is the measured-phase host wall time of a native-backend run,
	// in nanoseconds. 0 on simulator runs (whose Cell.HostNS covers the
	// whole cell, populate and warmup included).
	HostNS int64
	// Backend names the backend that produced the run ("native-tl2"); ""
	// means the cycle-ordered simulator.
	Backend string
	// Service carries the open-loop service observations (latency
	// percentiles, offered rate, goodput, shed counts) of a service cell;
	// nil on every other run.
	Service *ServiceRecord
	// Topology is the machine shape the run executed on; the zero value
	// means the flat machine (no NUMA block in reports or JSON).
	Topology sim.Topology
	// Placement and Mapping echo the NUMA knobs of a multi-socket run for
	// report labelling; empty/zero on flat runs.
	Placement mem.Placement
	Mapping   string
	// Chaos is the native chaos plane's per-run report (spec, deterministic
	// schedule hash, planned/fired injection counts, watchdog violation if
	// any); nil unless the run was native with the plane armed.
	Chaos *ChaosRecord
}

// validateConfig rejects unknown schemes/workloads and bad core counts,
// shared by RunOne and FinalStateHash.
func validateConfig(scheme, workload string, cores int, o Options) error {
	if cores < 1 {
		return fmt.Errorf("cores must be >= 1, got %d", cores)
	}
	if !slices.Contains(Schemes(), scheme) {
		return fmt.Errorf("unknown scheme %q", scheme)
	}
	switch workload {
	case WorkloadHash, WorkloadBST, WorkloadBTree, WorkloadObjBST:
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	if _, err := ParseMapping(o.Mapping); err != nil {
		return err
	}
	if o.Topology != (sim.Topology{}) {
		if o.Topology.Sockets <= 0 || o.Topology.CoresPerSocket <= 0 {
			return fmt.Errorf("topology %s needs positive sockets and cores per socket", o.Topology)
		}
		if total := o.machineCores(cores); cores > total {
			return fmt.Errorf("topology %s has %d cores, run needs %d threads", o.Topology, total, cores)
		}
	}
	return nil
}

// runStructure executes the standard data-structure benchmark: populate,
// then `o.Ops` operations (20% updates, as in the paper) split across
// `cores` threads under the named scheme.
func runStructure(scheme, workload string, cores int, o Options) RunMetrics {
	m, err := RunOne(scheme, workload, cores, o, 20)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return m
}

// RunOne runs a single configuration — the programmatic form of the tmsim
// command line. Every run starts with a warmup phase (caches filled, the
// HASTM mode controller settled) separated from the measured phase by a
// barrier; only steady-state cycles are reported, as a long benchmark run
// on real hardware would.
func RunOne(scheme, workload string, cores int, o Options, updatePct int) (RunMetrics, error) {
	if err := validateConfig(scheme, workload, cores, o); err != nil {
		return RunMetrics{}, err
	}

	machine := machineFor(cores, o)
	var tb *sim.TraceBuffer
	if o.TraceMax > 0 {
		tb = sim.NewTraceBuffer(o.TraceMax * 16)
		machine.SetTrace(tb)
	}
	var xb *telemetry.TraceBuffer
	if o.TxnTraceMax > 0 {
		xb = telemetry.NewTraceBuffer(o.TxnTraceMax)
		machine.SetTxnTrace(xb)
	}
	sys := buildExtScheme(scheme, machine, cores, o)
	ds := buildStructure(workload, machine.Mem, o)
	ds.Populate(machine.Mem, workloads.NewRand(o.Seed))

	warm := o.Warmup
	if warm == 0 {
		warm = o.Ops / 4
		if warm < 64 {
			warm = 64
		}
	}
	perWarm := warm / cores
	if perWarm == 0 {
		perWarm = 1
	}
	per := o.Ops / cores

	arrived := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	goFlag := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	starts := make([]uint64, cores)
	ends := make([]uint64, cores)

	// One program per thread, placed on its machine core by the mapping
	// policy; on a flat machine threads and cores coincide and the slice has
	// no gaps.
	progs := make([]sim.Program, machine.Topology().Sockets*machine.Topology().CoresPerSocket)
	for i := 0; i < cores; i++ {
		id := i
		progs[o.threadCore(i)] = func(c *sim.Ctx) {
			th := sys.Thread(c)
			wcfg := workloads.DriverConfig{Ops: perWarm, UpdatePercent: updatePct, Seed: o.Seed + 7777}
			if err := workloads.RunThread(th, ds, wcfg); err != nil {
				panic(fmt.Sprintf("harness warmup: %s/%s: %v", scheme, workload, err))
			}
			// Barrier: everyone checks in; core 0 resets the statistics
			// (warmup excluded) and releases the measured phase.
			for {
				old := c.Load(arrived)
				if ok, _ := c.CAS(arrived, old, old+1); ok {
					break
				}
			}
			if c.ID() == 0 {
				for c.Load(arrived) != uint64(cores) {
					c.Exec(1)
				}
				c.Step(func(m *sim.Machine) uint64 {
					// Warmup excluded from the counter stores and the
					// transaction trace so reports describe steady state
					// only — and so the trace's abort events tally exactly
					// with the abort counters.
					m.Stats.Reset()
					m.Telem.Reset()
					if tb := m.TxnTrace(); tb != nil {
						tb.Reset()
					}
					return 1
				})
				c.Store(goFlag, 1)
			} else {
				for c.Load(goFlag) != 1 {
					c.Exec(1)
				}
			}

			starts[id] = c.Clock()
			mcfg := workloads.DriverConfig{Ops: per, UpdatePercent: updatePct, Seed: o.Seed}
			if err := workloads.RunThread(th, ds, mcfg); err != nil {
				panic(fmt.Sprintf("harness: %s/%s: %v", scheme, workload, err))
			}
			ends[id] = c.Clock()
		}
	}
	machine.Run(progs...)

	var wall uint64
	for i := range starts {
		if d := ends[i] - starts[i]; d > wall {
			wall = d
		}
	}
	metrics := RunMetrics{
		WallCycles: wall,
		Stats:      machine.Stats,
		CacheStats: machine.Caches,
		Telem:      machine.Telem,
		Trace:      tb,
		TxnTrace:   xb,
		Sched:      machine.Sched(),
	}
	if !machine.Topology().IsFlat() {
		metrics.Topology = machine.Topology()
		metrics.Placement = o.Placement
		metrics.Mapping, _ = ParseMapping(o.Mapping)
	}
	// A core panic (contained at the grant boundary) or a tripped watchdog
	// fails the run with its structured report rather than surfacing a raw
	// panic or a partial, silently wrong result.
	if err := machine.CheckHealth(); err != nil {
		return metrics, err
	}
	return metrics, nil
}

// mustHealthy panics with the machine's contained failure report, if any.
// Run call sites that cannot return an error use it so a contained core
// panic or watchdog trip still fails the cell loudly instead of yielding
// a silently truncated result.
func mustHealthy(m *sim.Machine) {
	if err := m.CheckHealth(); err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
}

// runMicro executes the Fig 15 microbenchmark kernel single-threaded. A
// warmup pass brings the working region into the cache hierarchy before
// the measured transactions, as in the paper's long-running critical
// regions, so the comparison isolates barrier and validation overheads
// rather than compulsory misses.
func runMicro(scheme string, loadPct, loadReuse int, o Options) RunMetrics {
	machine := machineFor(1, o)
	sys := buildScheme(scheme, machine, 1, o)
	// A region small enough to stay L1-resident: the paper's kernel
	// models intra-transaction locality, not capacity misses.
	mi := workloads.NewMicro(machine.Mem, 256)
	mi.LoadPercent = loadPct
	mi.LoadReuse = loadReuse
	mi.StoreReuse = 40 // held constant in the paper

	var wall uint64
	machine.Run(func(c *sim.Ctx) {
		th := sys.Thread(c)
		r := workloads.NewRand(o.Seed)
		runTxns := func(n int) {
			for i := 0; i < n; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					return mi.Op(tx, r, false)
				}); err != nil {
					panic(err)
				}
			}
		}
		runTxns(4) // warmup: fill caches, settle the mode controller
		c.Step(func(m *sim.Machine) uint64 {
			m.Stats.Reset()
			m.Telem.Reset()
			if tb := m.TxnTrace(); tb != nil {
				tb.Reset()
			}
			return 1
		})
		start := c.Clock()
		runTxns(o.MicroTxns)
		wall = c.Clock() - start
	})
	mustHealthy(machine)
	return RunMetrics{WallCycles: wall, Stats: machine.Stats, Telem: machine.Telem, Sched: machine.Sched()}
}
