package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hastm.dev/hastm/internal/harness"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/native"
	"hastm.dev/hastm/internal/service"
	"hastm.dev/hastm/internal/stats"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
	"hastm.dev/hastm/internal/workloads"
)

const (
	// workers is the number of load goroutines: the host's two CPUs.
	workers = 2
	// setupReps is how many times a run builds the program; setup_s is
	// the median and the last build is the one measured.
	setupReps = 3
	// warmupOps is each worker's read-only warmup, part of set-up.
	warmupOps = 1 << 15
	// windowNS is the throughput sampling window; txn_per_s is the median
	// window rate, so a host stall costs one window, not the run.
	windowNS = int64(100 * time.Millisecond)
	// latWindow is the request count of one latency window, about 100 ms
	// of requests per worker (closed loop) or of arrivals (open loop).
	latWindow = 40_000
	// lateBoundNS invalidates an open-loop run whose generator issued its
	// requests later than this at the 99th percentile: its latencies
	// would measure the generator, not the program.
	lateBoundNS = 20_000
)

// bankSpec is one bank workload: the bank and, for an open loop, the
// arrival rate (0 runs a closed loop).
type bankSpec struct {
	name string
	cfg  service.BankConfig
	rate float64
}

// readBank spreads 262144 accounts uniformly over 1M slots: 16 MiB of
// data, 16× the lines the 16384-entry stripe table covers.
var readBank = bankSpec{
	name: "native-read",
	cfg:  service.BankConfig{Keys: 1 << 18, Slots: 1 << 20, ReadPct: 45, TransferPct: 5, ScanLen: 8},
}

// openBank is the service figure's mix: 4096 Zipf(0.99) accounts in a
// 256 KiB table, offered at about half its closed-loop capacity.
var openBank = bankSpec{
	name: "native-bank-open",
	cfg:  service.BankConfig{Keys: 4096, Slots: 16384, ZipfS: 0.99, ReadPct: 50, TransferPct: 40, ScanLen: 8},
	rate: 400_000,
}

// bankRig is one built program: the bank in its memory under a native
// TL2 system.
type bankRig struct {
	m    *mem.Memory
	bank *service.Bank
	sys  *native.System
}

// buildBank builds, populates and warms up the program, returning the
// whole set-up time and the populate part of it.
func buildBank(spec bankSpec, seed uint64) (rig *bankRig, setup, populate time.Duration, err error) {
	t0 := time.Now()
	m := mem.New()
	bank := service.NewBank(m, spec.cfg)
	tp := time.Now()
	bank.Populate(m, workloads.NewRand(seed))
	populate = time.Since(tp)
	sys := native.New(m, native.Config{
		TM:      tm.Config{Progress: tm.Progress{RetryBudget: harness.IrrevocableDefaultBudget}},
		Threads: workers,
	})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		th := sys.Thread(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = service.RunWarmup(th, bank, service.Config{Warmup: warmupOps, Seed: seed})
		}(g)
	}
	wg.Wait()
	return &bankRig{m: m, bank: bank, sys: sys}, time.Since(t0), populate, errors.Join(errs...)
}

// opRec is one committed writer: enough for the oracle to replay it.
type opRec struct{ seed, stamp uint64 }

// paddedCount is a counter alone on its cache line.
type paddedCount struct {
	_ [64]byte
	n atomic.Uint64
	_ [56]byte
}

// worker is one load goroutine's state. Its body closure is bound once
// and reads the request's seed from the worker, so issuing a request
// allocates nothing on the benchmark's side.
type worker struct {
	_        [64]byte // written per request: keep off a neighbour's cache lines
	id       int
	runSeed  uint64
	bank     *service.Bank
	th       tm.Thread     // the native handle
	call     tm.Thread     // th, or tt while a traced phase runs
	tt       *tracedThread // nil when the run is untraced
	tracing  bool          // the current phase goes through tt
	seed     uint64        // operation seed of the request in flight
	body     func(tm.Txn) error
	next     uint64 // closed loop: this worker's next request number
	cursor   int    // open loop: first schedule index not yet due
	backlog  int    // open loop: deepest backlog seen this phase
	recs     *offheap[opRec]
	nrecs    int
	lat      *offheap[uint32] // closed loop: this worker's latencies
	nlat     int
	failed   uint64
	firstErr error
	overflow bool
	done     paddedCount // committed requests, read by the window sampler
}

func (w *worker) op(tx tm.Txn) error { return w.bank.Op(tx, workloads.NewRand(w.seed), false) }

// issue runs one request through the handle and books its outcome.
func (w *worker) issue(req, seed uint64, sampled bool) (writes bool, err error) {
	_, writes = w.bank.Classify(seed)
	w.seed = seed
	if w.tracing {
		w.tt.begin(req, sampled)
	}
	err = w.call.Atomic(w.body)
	switch {
	case err != nil:
		w.failed++
		if w.firstErr == nil {
			w.firstErr = fmt.Errorf("request %d: %w", req, err)
		}
	case writes && w.nrecs == len(w.recs.s):
		w.overflow = true
	case writes:
		w.recs.s[w.nrecs] = opRec{seed: seed, stamp: w.th.Stamp()}
		w.nrecs++
	}
	if err == nil {
		w.done.n.Add(1)
	}
	return writes, err
}

func (w *worker) closedLoop(stop *atomic.Bool) {
	for !stop.Load() {
		req := uint64(w.id)<<40 | w.next
		w.next++
		sampled := w.tracing && req%spanEvery == 0
		t0 := nanotime()
		writes, _ := w.issue(req, opSeed(w.runSeed, req), sampled)
		t1 := nanotime()
		if w.nlat < len(w.lat.s) {
			w.lat.s[w.nlat] = clampNS(t1 - t0)
			w.nlat++
		}
		if sampled {
			w.tt.tr.add(span{req: req, kind: spanRequest, start: t0, end: t1, writes: writes})
		}
	}
}

// openPhase is one open-loop phase: a schedule claimed in order by every
// worker through next, and per-request records indexed like it.
type openPhase struct {
	base  uint64  // request number of sched[0]
	start int64   // nanotime of the phase's time zero
	sched []int64 // due times, ns after start
	lat   []uint32
	late  []uint32
	next  atomic.Int64
}

func (w *worker) openLoop(p *openPhase) {
	n := len(p.sched)
	for {
		i := int(p.next.Add(1) - 1)
		if i >= n {
			return
		}
		due := p.start + p.sched[i]
		claimed := nanotime()
		t := claimed
		for t < due {
			t = nanotime()
		}
		// Lateness is the generator's own delay past the moment it could
		// issue: the due time, or the claim when the request was already due.
		p.late[i] = clampNS(t - max(due, claimed))
		for w.cursor < n && p.start+p.sched[w.cursor] <= t {
			w.cursor++
		}
		if b := w.cursor - i - 1; b > w.backlog {
			w.backlog = b
		}
		req := p.base + uint64(i)
		sampled := w.tracing && req%spanEvery == 0
		writes, _ := w.issue(req, opSeed(w.runSeed, req), sampled)
		end := nanotime()
		p.lat[i] = clampNS(end - due)
		if sampled {
			w.tt.tr.add(span{req: req, kind: spanRequest, start: due, end: end, writes: writes})
		}
	}
}

func clampNS(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(d)
}

// phaseStats summarises one measured phase.
type phaseStats struct {
	requests, committed, failed uint64
	windows                     []float64 // commit rate per sampling window
	lat                         []uint32  // sorted request latencies, ns
	winP50, winP90              float64   // see phase, ns
	late                        []uint32  // open loop: sorted generator lateness, ns
	backlog                     int
	elapsed                     int64 // ns
	mallocs                     uint64
	rss                         int64 // process peak RSS at the phase's end
	rssErr                      error
}

// txnPerS is the median window rate, or the whole phase's rate when the
// phase was shorter than one window.
func (p *phaseStats) txnPerS() float64 {
	if len(p.windows) == 0 {
		return ratio(float64(p.committed)*1e9, float64(p.elapsed))
	}
	return median(p.windows)
}

// latUS is a whole-phase latency percentile in µs.
func (p *phaseStats) latUS(permille int) float64 {
	return float64(percentile(p.lat, permille)) / 1e3
}

// windowPercentiles returns the median over windows of each window's p50
// and p90. A host episode that slows the program for a second or two
// moves a few windows, not the result; when the phase is shorter than one
// window, the whole phase is the one window.
func windowPercentiles(windows [][]uint32, all []uint32) (p50, p90 float64) {
	if len(windows) == 0 {
		windows = [][]uint32{all}
	}
	var p50s, p90s []float64
	var scratch []uint32
	for _, w := range windows {
		scratch = append(scratch[:0], w...)
		slices.Sort(scratch)
		p50s = append(p50s, float64(percentile(scratch, 500)))
		p90s = append(p90s, float64(percentile(scratch, 900)))
	}
	return median(p50s), median(p90s)
}

// windowMean returns the median over windows of each window's mean.
func windowMean(windows [][]uint32, all []uint32) float64 {
	if len(windows) == 0 {
		windows = [][]uint32{all}
	}
	var means []float64
	for _, w := range windows {
		var sum float64
		for _, x := range w {
			sum += float64(x)
		}
		means = append(means, ratio(sum, float64(len(w))))
	}
	return median(means)
}

// chunks splits xs into whole latency windows, dropping the remainder.
func chunks(xs []uint32) (out [][]uint32) {
	for k := 0; k+latWindow <= len(xs); k += latWindow {
		out = append(out, xs[k:k+latWindow])
	}
	return out
}

// bankRun holds a workload's program, workers and record buffers across
// its phases.
type bankRun struct {
	spec  bankSpec
	cfg   runConfig
	rig   *bankRig
	ws    []*worker
	bufs  []interface{ free() }
	sched *offheap[int64] // open loop only
	lat   *offheap[uint32]
	late  *offheap[uint32]
	used  int // open loop: schedule slots consumed by earlier phases
}

func (r *bankRun) close() {
	for _, b := range r.bufs {
		b.free()
	}
}

// offheapResident sums the record buffers' resident bytes: the share of
// the process's peak RSS that is the benchmark's, not the program's.
func (r *bankRun) offheapResident() int64 {
	var n int64
	for _, w := range r.ws {
		n += w.recs.residentBytes(w.nrecs) + w.lat.residentBytes(w.nlat)
		if w.tt != nil {
			n += w.tt.tr.spans.residentBytes(w.tt.tr.n)
		}
	}
	return n + r.sched.residentBytes(r.used) + r.lat.residentBytes(r.used) + r.late.residentBytes(r.used)
}

func newBankRun(spec bankSpec, cfg runConfig, rig *bankRig) (*bankRun, error) {
	r := &bankRun{spec: spec, cfg: cfg, rig: rig}
	if err := r.allocate(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// mapped maps an off-heap buffer that r.close releases.
func mapped[T any](r *bankRun, n int) (*offheap[T], error) {
	b, err := newOffheap[T](n)
	if err == nil {
		r.bufs = append(r.bufs, b)
	}
	return b, err
}

// allocate creates the workers and their record buffers. Capacities are
// generous upper bounds; pages never written cost nothing.
func (r *bankRun) allocate() (err error) {
	perWorker := int(r.cfg.seconds*3e6) + 1024
	recCap := int(r.cfg.seconds*1e6) + 1024
	if r.spec.rate > 0 {
		total := int(r.spec.rate*r.cfg.seconds) + 2
		recCap, perWorker = total, 0
		if r.sched, err = mapped[int64](r, total); err != nil {
			return err
		}
		if r.lat, err = mapped[uint32](r, total); err != nil {
			return err
		}
		if r.late, err = mapped[uint32](r, total); err != nil {
			return err
		}
	}
	for g := 0; g < workers; g++ {
		w := &worker{id: g, runSeed: r.cfg.seed, bank: r.rig.bank, th: r.rig.sys.Thread(g)}
		w.call = w.th
		w.body = w.op
		if w.recs, err = mapped[opRec](r, recCap); err != nil {
			return err
		}
		if w.lat, err = mapped[uint32](r, perWorker); err != nil {
			return err
		}
		if r.cfg.trace {
			// Sampled requests record a request, an atomic and usually one
			// op span; four per sampled request leaves room for retries.
			spans, err := mapped[span](r, int(r.cfg.seconds*4e6/spanEvery)+1024)
			if err != nil {
				return err
			}
			w.tt = newTracedThread(w.th, &tracer{spans: spans})
		}
		r.ws = append(r.ws, w)
	}
	return nil
}

// phase runs one measured phase of dur (closed loop) or of the schedule
// covering dur (open loop), traced or not.
func (r *bankRun) phase(dur float64, traced bool, phaseNo uint64) phaseStats {
	for _, w := range r.ws {
		w.call, w.tracing = w.th, traced
		if traced {
			w.call = w.tt
		}
		w.backlog, w.cursor = 0, 0
	}
	var op *openPhase
	if r.spec.rate > 0 {
		n := int(r.spec.rate * dur)
		op = &openPhase{
			base:  uint64(r.used),
			sched: r.sched.s[r.used : r.used+n],
			lat:   r.lat.s[r.used : r.used+n],
			late:  r.late.s[r.used : r.used+n],
		}
		fillSchedule(op.sched, r.cfg.seed^phaseNo*0x5851f42d4c957f2d, r.spec.rate)
		r.used += n
	}
	before := make([]struct {
		done, failed uint64
		nlat         int
	}, len(r.ws))
	for i, w := range r.ws {
		before[i].done, before[i].failed, before[i].nlat = w.done.n.Load(), w.failed, w.nlat
	}
	r.rig.sys.Stats().Reset()
	r.rig.sys.Telemetry().Reset()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs

	var stop atomic.Bool
	var wg sync.WaitGroup
	start := nanotime()
	until := start + int64(dur*1e9)
	if op != nil {
		// Time zero sits a millisecond out so both workers are spinning
		// before the first request is due.
		op.start = start + int64(time.Millisecond)
		until = op.start + op.sched[len(op.sched)-1]
	}
	for _, w := range r.ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if op != nil {
				w.openLoop(op)
			} else {
				w.closedLoop(&stop)
			}
		}(w)
	}
	windows := r.sampleWindows(start, until)
	stop.Store(true)
	wg.Wait()
	elapsed := nanotime() - start
	// Read before any post-processing allocates.
	rss, rssErr := peakRSS()
	runtime.ReadMemStats(&ms)

	ps := phaseStats{windows: windows, elapsed: elapsed, mallocs: ms.Mallocs - mallocs0, rss: rss, rssErr: rssErr}
	var latWindows [][]uint32
	for i, w := range r.ws {
		ps.committed += w.done.n.Load() - before[i].done
		ps.failed += w.failed - before[i].failed
		if op == nil {
			mine := w.lat.s[before[i].nlat:w.nlat]
			latWindows = append(latWindows, chunks(mine)...)
			ps.lat = append(ps.lat, mine...)
		}
		ps.backlog = max(ps.backlog, w.backlog)
	}
	ps.requests = ps.committed + ps.failed
	if op != nil {
		latWindows = chunks(op.lat)
		ps.lat, ps.late = op.lat, op.late
	}
	ps.winP50, ps.winP90 = windowPercentiles(latWindows, ps.lat)
	if op == nil {
		// The closed loop's request-level p50 falls between the lookup and
		// scan latency modes, where a small shift in either moves it by up
		// to a third; the median window's mean latency is the stable middle.
		ps.winP50 = windowMean(latWindows, ps.lat)
	}
	// Sorted in place: the records are not read again.
	slices.Sort(ps.lat)
	slices.Sort(ps.late)
	return ps
}

// sampleWindows sleeps through [start, until], recording the commit rate
// of each full window.
func (r *bankRun) sampleWindows(start, until int64) []float64 {
	total := func() (n uint64) {
		for _, w := range r.ws {
			n += w.done.n.Load()
		}
		return n
	}
	var rates []float64
	prevT, prev := start, total()
	for prevT+windowNS <= until {
		time.Sleep(time.Duration(prevT + windowNS - nanotime()))
		t, c := nanotime(), total()
		rates = append(rates, float64(c-prev)*1e9/float64(t-prevT))
		prevT, prev = t, c
	}
	if d := until - nanotime(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return rates
}

// runBank is a native bank workload: set up several times, measure, check
// the generator, then verify the committed state against the sequential
// oracle.
func runBank(spec bankSpec, cfg runConfig) (*result, error) {
	layers := []string{"native", "service", "workloads"}
	if spec.rate > 0 {
		layers = append(layers, "gen")
	}
	res := newResult(layers...)

	var rig *bankRig
	var setups, pops []float64
	for i := 0; i < setupReps; i++ {
		rig = nil
		runtime.GC()
		debug.FreeOSMemory()
		var setup, pop time.Duration
		var err error
		if rig, setup, pop, err = buildBank(spec, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, setup.Seconds())
		pops = append(pops, pop.Seconds())
	}
	run, err := newBankRun(spec, cfg, rig)
	if err != nil {
		return nil, err
	}
	defer run.close()

	v := res.values
	v["setup_s"] = median(setups)
	v["workloads.populate_s"] = median(pops)
	var phases []phaseStats
	if cfg.trace {
		// Untraced and traced quarters alternate, so host drift over the run
		// falls on both alike. The untraced quarters are the reference for
		// the tracing overhead and for allocations per transaction (no
		// wrapper in the way).
		var plain, traced []phaseStats
		for q := uint64(0); q < 4; q++ {
			p := run.phase(cfg.seconds/4, q%2 == 1, q)
			if q%2 == 1 {
				traced = append(traced, p)
			} else {
				plain = append(plain, p)
			}
			phases = append(phases, p)
		}
		run.layerMetrics(v, plain, traced)
	} else {
		phases = append(phases, run.phase(cfg.seconds, false, 0))
	}
	measured := &phases[len(phases)-1]
	if measured.rssErr != nil {
		return nil, measured.rssErr
	}
	v["mem_mb"] = float64(measured.rss-run.offheapResident()) / (1 << 20)

	for _, p := range phases {
		res.attempted += p.requests
		res.failed += p.failed
		if spec.rate > 0 {
			if late := percentile(p.late, 990); late > lateBoundNS {
				res.fail("generator late: p99 lateness %d ns exceeds the %d ns bound, so the run is invalid", late, lateBoundNS)
			}
		}
	}
	v["txn_per_s"] = measured.txnPerS()
	v["svc_p50_us"] = measured.winP50 / 1e3
	v["svc_p90_us"] = measured.winP90 / 1e3
	v["service.p50_us"], v["service.p90_us"] = measured.latUS(500), measured.latUS(900)
	v["ok_frac"] = 1 - ratio(float64(res.failed), float64(res.attempted))
	if spec.rate > 0 {
		v["gen.late_p50_us"] = float64(percentile(measured.late, 500)) / 1e3
		v["gen.late_p99_us"] = float64(percentile(measured.late, 990)) / 1e3
		v["gen.backlog_max"] = float64(measured.backlog)
	}

	tv := time.Now()
	verifyBank(res, spec, cfg, run)
	v["workloads.verify_s"] = time.Since(tv).Seconds()

	if cfg.trace && cfg.spansDir != "" {
		per := make([][]span, len(run.ws))
		for i, w := range run.ws {
			per[i] = w.tt.tr.recorded()
		}
		if err := writeSpans(filepath.Join(cfg.spansDir, spec.name+".spans.jsonl"), per); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyBank checks the run's committed state: no failed request, no lost
// record, a healthy TL2 system, and a final bank that matches the
// sequential replay of every committed writer in stamp order (which also
// checks the bank's invariants and money conservation).
func verifyBank(res *result, spec bankSpec, cfg runConfig, run *bankRun) {
	log := workloads.NewOpLog()
	for _, w := range run.ws {
		if w.firstErr != nil {
			res.fail("worker %d: %v", w.id, w.firstErr)
		}
		if w.overflow {
			res.fail("worker %d: committed-op record buffer full; the oracle cannot replay the run", w.id)
		}
		for k, rec := range w.recs.s[:w.nrecs] {
			log.Add(workloads.OpRecord{Thread: w.id, Index: k, Seed: rec.seed, Update: true, Stamp: rec.stamp})
		}
	}
	if err := run.rig.sys.CheckHealth(); err != nil {
		res.fail("native health: %v", err)
	}
	build := func(m *mem.Memory) workloads.DataStructure { return service.NewBank(m, spec.cfg) }
	if _, err := workloads.VerifyOracle(run.rig.bank, run.rig.m, build, cfg.seed, log); err != nil {
		res.fail("oracle: %v", err)
	}
}

// layerMetrics derives the per-layer metrics of a traced run from the
// traced phases' spans and counters, and the tracing overhead from the
// untraced phases between them. The TL2 system's counters are reset at
// every phase, so they cover the last traced phase alone.
func (r *bankRun) layerMetrics(v map[string]float64, plain, traced []phaseStats) {
	var atomics []int64
	var selfSum, opSum, opSpans int64
	var readers, writers []int64
	var reqs, attempts, loads, stores uint64
	for _, w := range r.ws {
		tr := w.tt.tr
		reqs += tr.requests
		attempts += tr.attempts
		loads += tr.loads
		stores += tr.stores
		var inReq int64 // op time of the request whose spans are being read
		for _, s := range tr.recorded() {
			switch s.kind {
			case spanOp:
				opSpans++
				inReq += s.dur()
				opSum += s.dur()
			case spanAtomic:
				atomics = append(atomics, s.dur())
				selfSum += s.dur() - inReq
				inReq = 0
			case spanRequest:
				if s.writes {
					writers = append(writers, s.dur())
				} else {
					readers = append(readers, s.dur())
				}
			}
		}
		if tr.dropped > 0 {
			v["trace.dropped_spans"] += float64(tr.dropped)
		}
	}
	atomics, readers, writers = sortedCopy(atomics), sortedCopy(readers), sortedCopy(writers)
	st := r.rig.sys.Stats()
	last := &traced[len(traced)-1]
	var commits, plainCommits, plainMallocs float64
	var tracedRate, plainRate, tracedP50, plainP50 float64
	for i := range traced {
		commits += float64(traced[i].committed)
		tracedRate += traced[i].txnPerS()
		tracedP50 += traced[i].winP50
	}
	for i := range plain {
		plainCommits += float64(plain[i].committed)
		plainMallocs += float64(plain[i].mallocs)
		plainRate += plain[i].txnPerS()
		plainP50 += plain[i].winP50
	}
	lastCommits := float64(last.committed)
	v["native.atomic_p50_ns"] = float64(percentile(atomics, 500))
	v["native.atomic_p99_ns"] = float64(percentile(atomics, 990))
	v["native.self_ns_per_txn"] = ratio(float64(selfSum), float64(len(atomics)))
	v["native.attempts_per_commit"] = ratio(float64(attempts), commits)
	v["native.aborts_validation"] = 1e3 * ratio(float64(st.Aborts(stats.AbortValidation)), lastCommits)
	v["native.aborts_lock"] = 1e3 * ratio(float64(st.Aborts(stats.AbortLockConflict)), lastCommits)
	v["native.escalations"] = 1e3 * ratio(float64(r.rig.sys.Telemetry().Count(telemetry.Escalations)), lastCommits)
	v["native.loads_per_txn"] = ratio(float64(loads), float64(reqs))
	v["native.stores_per_txn"] = ratio(float64(stores), float64(reqs))
	v["native.allocs_per_txn"] = ratio(plainMallocs, plainCommits)
	v["service.body_ns_per_attempt"] = ratio(float64(opSum), float64(opSpans))
	v["service.reader_p90_us"] = float64(percentile(readers, 900)) / 1e3
	v["service.writer_p90_us"] = float64(percentile(writers, 900)) / 1e3
	v["service.sojourn_p99_us"] = last.latUS(990)
	v["service.sojourn_p999_us"] = last.latUS(999)
	v["trace.txn_per_s_overhead"] = 1 - ratio(tracedRate, plainRate)
	v["trace.svc_p50_overhead"] = ratio(tracedP50, plainP50) - 1
	v["trace.untraced_txn_per_s"] = plainRate / float64(len(plain))
	v["trace.untraced_svc_p50_us"] = plainP50 / float64(len(plain)) / 1e3
}
