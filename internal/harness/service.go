package harness

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/service"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

// The service runner drives the open-loop transactional bank service
// (internal/service) on both backends. Simulator cells pace arrivals in
// simulated cycles and report latency percentiles in cycles — fully
// deterministic, byte-identical across -j and schedulers. Native cells
// pace arrivals on the host clock and report nanoseconds. Every cell's
// committed-op log is replayed through the sequential oracle before the
// cell is allowed to report.

// ServiceCores is the fixed core/goroutine count of the service figure:
// the service models one fixed machine under varying load, not a scaling
// sweep.
const ServiceCores = 8

// ServiceRecord is the per-cell service block of the JSON schema: offered
// load, goodput and the sojourn-latency percentiles. Units are simulated
// cycles (and requests per million cycles) on the sim backend, host
// nanoseconds (and requests per second) on native.
type ServiceRecord struct {
	// OfferedRate is the measured arrival rate: requests per million
	// cycles (sim) or per second (native).
	OfferedRate float64 `json:"offered_rate"`
	// Goodput is the committed-transaction rate on the same axis.
	Goodput float64 `json:"goodput"`
	// Latency percentiles of committed requests' sojourn time (queueing
	// delay + execution), in cycles (sim) or nanoseconds (native).
	LatencyP50  uint64 `json:"latency_p50"`
	LatencyP99  uint64 `json:"latency_p99"`
	LatencyP999 uint64 `json:"latency_p999"`
	Offered     uint64 `json:"offered"`
	Committed   uint64 `json:"committed"`
	// Shed counts requests rejected by admission control (queue-delay
	// budget or hot-key policy). Not omitted when zero: the CI schema
	// asserts grep for it.
	Shed uint64 `json:"shed"`
	// Serialized counts requests routed through the irrevocable ladder by
	// the hot-key policy.
	Serialized uint64 `json:"serialized"`
	// Degradation-ladder accounting: class sheds (included in Shed),
	// ladder transitions, and the deepest level any core engaged.
	ShedScans        uint64 `json:"shed_scans"`
	ShedTransfers    uint64 `json:"shed_transfers"`
	DegradeEngaged   uint64 `json:"degrade_engaged"`
	DegradeRecovered uint64 `json:"degrade_recovered"`
	DegradeLevelMax  int    `json:"degrade_level_max"`
}

// DefaultAdmission is the service figure's admission-control setting:
// shed requests stuck in queue past the delay budget, serialize writes to
// keys showing a conflict storm. The two queue-delay budgets are per
// backend (simulated cycles vs host nanoseconds) and deliberately carry
// the same number each: 20k cycles and 20µs are both "a few transactions
// deep" on their respective axes.
func DefaultAdmission() service.AdmissionConfig {
	return service.AdmissionConfig{
		ShedAfterCycles: 20_000, // simulated cycles of queueing delay (sim backend)
		ShedAfterNS:     20_000, // host nanoseconds of queueing delay (native backend)
		HotThreshold:    6,
		HotWindow:       64,
		Serialize:       true,
	}
}

// DefaultDegrade is the service figure's graceful-degradation setting.
// The sim budget equals the CI SLO gate's p999 bound at the moderate-load
// operating point, so a healthy cell never engages the ladder and the
// overloaded cells shed scans before transfers; the native budget is the
// same posture on the host-nanosecond axis.
func DefaultDegrade() service.DegradeConfig {
	return service.DegradeConfig{
		SLOCycles: 16_384,    // p99 sojourn budget, simulated cycles
		SLONS:     1_000_000, // p99 sojourn budget, host ns (1ms)
	}
}

// ServiceConfig assembles one cell's service configuration from the
// harness options: accounts sized from HashSlots at 4× headroom, the
// total request count split across cores like every simulator cell.
func ServiceConfig(o Options, cores int, meanGap uint64, zipfS float64, adm service.AdmissionConfig) service.Config {
	keys := o.HashSlots / 4
	if keys < 16 {
		keys = 16
	}
	per := o.Ops / cores
	if per < 1 {
		per = 1
	}
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
	return service.Config{
		Bank: service.BankConfig{
			Keys:        keys,
			Slots:       o.HashSlots,
			ZipfS:       zipfS,
			ReadPct:     50,
			TransferPct: 40,
			ScanLen:     8,
		},
		Requests:  per,
		Warmup:    perWarm,
		MeanGap:   meanGap,
		Seed:      o.Seed,
		Admission: adm,
		Degrade:   DefaultDegrade(),
	}
}

// serviceRecord folds merged cell metrics into the JSON block. scale is
// the rate denominator: wall cycles (reported per Mcycle) on sim, host
// seconds on native.
func serviceRecord(cm *service.CellMetrics, rate func(count uint64) float64) *ServiceRecord {
	return &ServiceRecord{
		OfferedRate:      rate(cm.Offered),
		Goodput:          rate(cm.Committed),
		LatencyP50:       cm.Hist.Percentile(0.50),
		LatencyP99:       cm.Hist.Percentile(0.99),
		LatencyP999:      cm.Hist.Percentile(0.999),
		Offered:          cm.Offered,
		Committed:        cm.Committed,
		Shed:             cm.Shed,
		Serialized:       cm.Serialized,
		ShedScans:        cm.ShedScans,
		ShedTransfers:    cm.ShedTransfers,
		DegradeEngaged:   cm.DegradeEngaged,
		DegradeRecovered: cm.DegradeRecovered,
		DegradeLevelMax:  cm.MaxDegradeLevel,
	}
}

// RunOneService runs one simulator service cell under the default STM
// scheme. See RunOneServiceScheme.
func RunOneService(cores int, sc service.Config, o Options) (RunMetrics, error) {
	return RunOneServiceScheme(SchemeSTM, cores, sc, o)
}

// RunOneServiceScheme runs one simulator service cell: populate the bank,
// run the read-only warmup, then drive every core's open-loop arrival
// stream under the named scheme with the escalation ladder armed (the
// admission controller's serialize action needs it). The committed-op log
// is replayed through the sequential oracle before the metrics are
// returned.
func RunOneServiceScheme(scheme string, cores int, sc service.Config, o Options) (RunMetrics, error) {
	if cores < 1 {
		return RunMetrics{}, fmt.Errorf("cores must be >= 1, got %d", cores)
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
	oArmed := o
	if oArmed.RetryBudget == 0 {
		oArmed.RetryBudget = IrrevocableDefaultBudget
	}
	sys := buildScheme(scheme, machine, cores, oArmed)
	bank := service.NewBank(machine.Mem, sc.Bank)
	bank.Populate(machine.Mem, workloads.NewRand(sc.Seed))

	arrived := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	goFlag := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
	starts := make([]uint64, cores)
	ends := make([]uint64, cores)
	perCore := make([]service.CellMetrics, cores)
	log := workloads.NewOpLog()

	progs := make([]sim.Program, cores)
	for i := range progs {
		id := i
		progs[i] = func(c *sim.Ctx) {
			th := sys.Thread(c)
			if err := service.RunWarmup(th, bank, sc); err != nil {
				panic(fmt.Sprintf("harness service warmup: %v", err))
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
			if err := service.RunCoreSim(c, th, bank, sc, &perCore[id], log); err != nil {
				panic(fmt.Sprintf("harness service: %v", err))
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
	merged := &service.CellMetrics{}
	for i := range perCore {
		merged.Merge(&perCore[i])
	}
	metrics := RunMetrics{
		WallCycles: wall,
		Stats:      machine.Stats,
		CacheStats: machine.Caches,
		Telem:      machine.Telem,
		Trace:      tb,
		TxnTrace:   xb,
		Sched:      machine.Sched(),
		Service: serviceRecord(merged, func(n uint64) float64 {
			if wall == 0 {
				return 0
			}
			return float64(n) * 1e6 / float64(wall)
		}),
	}
	if err := machine.CheckHealth(); err != nil {
		return metrics, err
	}
	// Every service cell must replay clean through the sequential oracle:
	// the committed-op log applied serially in stamp order to a freshly
	// populated bank must reproduce the run's exact final state.
	bcfg := sc.Bank
	if _, err := workloads.VerifyOracle(bank, machine.Mem, func(m2 *mem.Memory) workloads.DataStructure {
		return service.NewBank(m2, bcfg)
	}, sc.Seed, log); err != nil {
		return metrics, fmt.Errorf("service oracle: %w", err)
	}
	return metrics, nil
}

// RunOneServiceNative runs one native-backend service cell: the same
// bank and admission control, arrivals paced on the host clock, latency
// in host nanoseconds. The op log is oracle-replayed — TL2 write versions
// are valid serialization stamps — so the native service path gets the
// same end-to-end correctness check as the simulator.
func RunOneServiceNative(threads int, sc service.Config, o Options) (RunMetrics, error) {
	if threads < 1 {
		return RunMetrics{}, fmt.Errorf("threads must be >= 1, got %d", threads)
	}
	m := mem.New()
	bank := service.NewBank(m, sc.Bank)
	bank.Populate(m, workloads.NewRand(sc.Seed))
	rb := o.RetryBudget
	if rb == 0 {
		rb = IrrevocableDefaultBudget
	}
	sys := native.New(m, native.Config{
		TM:      tm.Config{Progress: tm.Progress{RetryBudget: rb}},
		Threads: threads,
		Chaos:   o.Chaos,
	})
	sys.StartWatchdog()

	var ready, wg sync.WaitGroup
	goCh := make(chan struct{})
	errs := make([]error, threads)
	perCore := make([]service.CellMetrics, threads)
	log := workloads.NewOpLog()
	ready.Add(threads)
	wg.Add(threads)
	for g := 0; g < threads; g++ {
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			err := service.RunWarmup(th, bank, sc)
			ready.Done() // always check in, or the coordinator deadlocks
			if err != nil {
				errs[id] = fmt.Errorf("warmup: %w", err)
				return
			}
			<-goCh
			errs[id] = service.RunCoreNative(th, bank, sc, &perCore[id], log)
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

	merged := &service.CellMetrics{}
	for i := range perCore {
		merged.Merge(&perCore[i])
	}
	metrics := RunMetrics{
		Stats:   sys.Stats(),
		Telem:   sys.Telemetry(),
		HostNS:  hostNS,
		Backend: sys.Name(),
		Chaos:   chaosRecord(sys.ChaosReport(), sys.CheckHealth()),
		Service: serviceRecord(merged, func(n uint64) float64 {
			if hostNS <= 0 {
				return 0
			}
			return float64(n) / (float64(hostNS) / 1e9)
		}),
	}
	if err := sys.CheckHealth(); err != nil {
		return metrics, fmt.Errorf("native service: %w", err)
	}
	for id, err := range errs {
		if err != nil {
			return metrics, fmt.Errorf("native service thread %d: %w", id, err)
		}
	}
	bcfg := sc.Bank
	if _, err := workloads.VerifyOracle(bank, m, func(m2 *mem.Memory) workloads.DataStructure {
		return service.NewBank(m2, bcfg)
	}, sc.Seed, log); err != nil {
		return metrics, fmt.Errorf("native service oracle: %w", err)
	}
	return metrics, nil
}

// ServiceLoadGaps is the latency-vs-load sweep: mean per-core
// inter-arrival gaps from light load down past saturation (a service
// transaction costs a few hundred cycles, so the smallest gaps overload
// the cores and expose queueing delay and shedding), in simulated cycles
// (sim backend) — the native sweep reuses them as nanoseconds.
var ServiceLoadGaps = []uint64{16384, 4096, 1024, 256, 64}

// ServiceSkewS is the skew sweep's Zipf exponents (at a fixed moderate
// load).
var ServiceSkewS = []float64{0, 0.5, 0.9, 1.2, 1.5}

// ServiceSkewGap is the fixed mean gap of the skew sweep: busy enough
// that key skew translates into real conflict pressure.
const ServiceSkewGap uint64 = 1024

// ServiceSchemes is the service figure's scheme-comparison axis: the eager
// STM default against the deferred-update family, all at the skew sweep's
// moderate-load operating point. Every scheme cell oracle-replays its
// committed-op log, so this doubles as end-to-end service conformance for
// the lazy and mvcc commit protocols.
func ServiceSchemes() []string { return []string{SchemeSTM, SchemeLazy, SchemeMVCC} }

// serviceTables assembles the two-table group (latency percentiles;
// offered/goodput/shed counts) for one sweep.
func serviceTables(name, colHeader, latUnit, rateUnit string, cols []string, cells []*Cell) []Table {
	lat := Table{Name: name + "-latency", ColHeader: colHeader, Unit: latUnit, Cols: cols}
	thr := Table{Name: name + "-throughput", ColHeader: colHeader, Unit: rateUnit, Cols: cols}
	latRows := []struct {
		name string
		get  func(*ServiceRecord) float64
	}{
		{"p50", func(s *ServiceRecord) float64 { return float64(s.LatencyP50) }},
		{"p99", func(s *ServiceRecord) float64 { return float64(s.LatencyP99) }},
		{"p999", func(s *ServiceRecord) float64 { return float64(s.LatencyP999) }},
	}
	thrRows := []struct {
		name string
		get  func(*ServiceRecord) float64
	}{
		{"offered", func(s *ServiceRecord) float64 { return s.OfferedRate }},
		{"goodput", func(s *ServiceRecord) float64 { return s.Goodput }},
		{"shed", func(s *ServiceRecord) float64 { return float64(s.Shed) }},
		{"serialized", func(s *ServiceRecord) float64 { return float64(s.Serialized) }},
	}
	for _, r := range latRows {
		row := Row{Name: r.name}
		for _, c := range cells {
			row.Cells = append(row.Cells, r.get(c.Metrics().Service))
		}
		lat.Rows = append(lat.Rows, row)
	}
	for _, r := range thrRows {
		row := Row{Name: r.name}
		for _, c := range cells {
			row.Cells = append(row.Cells, r.get(c.Metrics().Service))
		}
		thr.Rows = append(thr.Rows, row)
	}
	return []Table{lat, thr}
}

// ServicePlan builds the simulator service figure: a latency-vs-load
// sweep (fixed moderate skew) and a skew sweep (fixed moderate load),
// both on ServiceCores cores with default admission control. All cell
// values derive from deterministic simulated state, so the figure is
// byte-identical across worker counts and schedulers.
func ServicePlan(o Options) *Plan {
	p := newPlan("service")
	adm := DefaultAdmission()
	const loadSkew = 0.9

	var loadCells []*Cell
	loadCols := make([]string, len(ServiceLoadGaps))
	for i, gap := range ServiceLoadGaps {
		gap := gap
		loadCols[i] = strconv.FormatUint(gap, 10)
		loadCells = append(loadCells, p.cell(fmt.Sprintf("service/load/gap%d", gap), func() RunMetrics {
			m, err := RunOneService(ServiceCores, ServiceConfig(o, ServiceCores, gap, loadSkew, adm), o)
			if err != nil {
				panic(fmt.Sprintf("harness: %v", err))
			}
			return m
		}))
	}
	var skewCells []*Cell
	skewCols := make([]string, len(ServiceSkewS))
	for i, s := range ServiceSkewS {
		s := s
		skewCols[i] = strconv.FormatFloat(s, 'g', -1, 64)
		skewCells = append(skewCells, p.cell(fmt.Sprintf("service/skew/s%g", s), func() RunMetrics {
			m, err := RunOneService(ServiceCores, ServiceConfig(o, ServiceCores, ServiceSkewGap, s, adm), o)
			if err != nil {
				panic(fmt.Sprintf("harness: %v", err))
			}
			return m
		}))
	}
	var schemeCells []*Cell
	schemeCols := ServiceSchemes()
	for _, scheme := range ServiceSchemes() {
		scheme := scheme
		schemeCells = append(schemeCells, p.cell(fmt.Sprintf("service/scheme/%s", scheme), func() RunMetrics {
			m, err := RunOneServiceScheme(scheme, ServiceCores, ServiceConfig(o, ServiceCores, ServiceSkewGap, loadSkew, adm), o)
			if err != nil {
				panic(fmt.Sprintf("harness: %v", err))
			}
			return m
		}))
	}
	p.Assemble = func() *Report {
		tables := serviceTables("load", "mean gap (cycles)", "cycles", "req/Mcycle", loadCols, loadCells)
		tables = append(tables, serviceTables("skew", "zipf s", "cycles", "req/Mcycle", skewCols, skewCells)...)
		tables = append(tables, serviceTables("scheme", "scheme", "cycles", "req/Mcycle", schemeCols, schemeCells)...)
		return &Report{
			ID:     "service",
			Title:  "Open-loop transactional service: latency vs load and key skew",
			Notes:  "sojourn latency percentiles (queueing + execution) in simulated cycles; offered/goodput in requests per million cycles; shed/serialized are admission-control counts; the scheme tables compare eager stm against the deferred-update family at the moderate-load operating point",
			Tables: tables,
		}
	}
	return p
}

// ServiceNativePlan is the native-backend service figure: the same two
// sweeps with arrivals paced in host nanoseconds. Host-dependent, like
// every native number.
func ServiceNativePlan(o Options) *Plan {
	p := newPlan("service-native")
	adm := DefaultAdmission()
	const loadSkew = 0.9

	var loadCells []*Cell
	loadCols := make([]string, len(ServiceLoadGaps))
	for i, gap := range ServiceLoadGaps {
		gap := gap
		loadCols[i] = strconv.FormatUint(gap, 10)
		loadCells = append(loadCells, p.cell(fmt.Sprintf("service-native/load/gap%d", gap), func() RunMetrics {
			m, err := RunOneServiceNative(ServiceCores, ServiceConfig(o, ServiceCores, gap, loadSkew, adm), o)
			if err != nil {
				panic(fmt.Sprintf("harness: %v", err))
			}
			return m
		}))
	}
	var skewCells []*Cell
	skewCols := make([]string, len(ServiceSkewS))
	for i, s := range ServiceSkewS {
		s := s
		skewCols[i] = strconv.FormatFloat(s, 'g', -1, 64)
		skewCells = append(skewCells, p.cell(fmt.Sprintf("service-native/skew/s%g", s), func() RunMetrics {
			m, err := RunOneServiceNative(ServiceCores, ServiceConfig(o, ServiceCores, ServiceSkewGap, s, adm), o)
			if err != nil {
				panic(fmt.Sprintf("harness: %v", err))
			}
			return m
		}))
	}
	p.Assemble = func() *Report {
		tables := serviceTables("load", "mean gap (ns)", "ns", "req/s", loadCols, loadCells)
		tables = append(tables, serviceTables("skew", "zipf s", "ns", "req/s", skewCols, skewCells)...)
		return &Report{
			ID:     "service-native",
			Title:  "Open-loop transactional service on the native TL2 backend",
			Notes:  "sojourn latency percentiles in host nanoseconds; offered/goodput in requests per second; host-dependent, not comparable to simulated figures",
			Tables: tables,
		}
	}
	return p
}
