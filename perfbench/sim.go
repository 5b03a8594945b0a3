package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/harness"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stats"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/workloads"
)

// simSpec is one simulator workload: the nine cells at a core count.
type simSpec struct {
	name  string
	cores int
	ops   int // 0 keeps harness.DefaultOptions' Ops
}

var (
	sim4core = simSpec{name: "sim-4core", cores: 4}
	sim1core = simSpec{name: "sim-1core", cores: 1, ops: 16384}
)

// schemeLayers maps each measured scheme to the package (layer) that
// implements it, which names its per-layer metrics.
var schemeLayers = []struct{ scheme, layer string }{
	{harness.SchemeSTM, "stm"},
	{harness.SchemeHASTM, "core"},
	{harness.SchemeLazy, "lazystm"},
}

var simStructures = []string{harness.WorkloadHash, harness.WorkloadBST, harness.WorkloadBTree}

// cycleCategories are the Figure 12 buckets reported per scheme.
var cycleCategories = []stats.Category{stats.App, stats.RdBar, stats.WrBar, stats.Validate, stats.Commit}

// updatePct is the paper's 20% update mix.
const updatePct = 20

// simSetupReps is higher than the bank's setupReps: one simulator set-up
// takes milliseconds, so its median needs more samples to hold still.
const simSetupReps = 11

func (s simSpec) options(seed uint64) harness.Options {
	o := harness.DefaultOptions()
	o.Seed = seed
	if s.ops > 0 {
		o.Ops = s.ops
	}
	return o
}

// cellRun is one harness.RunOne call and the counters taken at its
// boundary.
type cellRun struct {
	Pass      int               `json:"pass"`
	Scheme    string            `json:"scheme"`
	Structure string            `json:"structure"`
	StartNS   int64             `json:"start_ns"`
	EndNS     int64             `json:"end_ns"`
	Digest    string            `json:"digest"`
	Wall      uint64            `json:"wall_cycles"`
	Sched     sim.SchedCounters `json:"sched"`
	Cache     cacheCounters     `json:"cache"`
	Stats     stats.Totals      `json:"stats"`
	Err       string            `json:"error,omitempty"`
}

// cacheCounters are the hierarchy's exported event counters.
type cacheCounters struct {
	L1Hits, L1Misses, L2Hits, L2Misses    uint64
	Invalidations, BackInvalidations      uint64
	Evictions, MarkedDrops, PrefetchFills uint64
	Socket                                []cache.SocketCounters
}

func cacheOf(h *cache.Hierarchy) cacheCounters {
	if h == nil {
		return cacheCounters{}
	}
	return cacheCounters{
		L1Hits: h.L1Hits, L1Misses: h.L1Misses, L2Hits: h.L2Hits, L2Misses: h.L2Misses,
		Invalidations: h.Invalidations, BackInvalidations: h.BackInvalidations,
		Evictions: h.Evictions, MarkedDrops: h.MarkedDrops, PrefetchFills: h.PrefetchFills,
		Socket: h.Socket,
	}
}

// digest hashes every simulated counter of a cell: wall cycles, each
// core's stats, the telemetry totals, the cache counters and the
// scheduler counters. Deterministic simulation makes it a fixed function
// of the cell and seed.
func digest(rm harness.RunMetrics) string {
	var cores []stats.Core
	if rm.Stats != nil {
		cores = rm.Stats.Cores
	}
	var telem telemetry.Totals
	if rm.Telem != nil {
		telem = rm.Telem.Totals()
	}
	b, err := json.Marshal(struct {
		Wall  uint64
		Cores []stats.Core
		Telem telemetry.Totals
		Cache cacheCounters
		Sched sim.SchedCounters
	}{rm.WallCycles, cores, telem, cacheOf(rm.CacheStats), rm.Sched})
	if err != nil {
		panic(err) // plain counter structs always marshal
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))[:16]
}

func runCell(spec simSpec, o harness.Options, pass int, scheme, structure string) cellRun {
	c := cellRun{Pass: pass, Scheme: scheme, Structure: structure, StartNS: nanotime()}
	rm, err := harness.RunOne(scheme, structure, spec.cores, o, updatePct)
	c.EndNS = nanotime()
	if err != nil {
		c.Err = err.Error()
		return c
	}
	c.Digest = digest(rm)
	c.Wall, c.Sched, c.Cache = rm.WallCycles, rm.Sched, cacheOf(rm.CacheStats)
	c.Stats = rm.Stats.Totals()
	return c
}

// buildSimInputs is the nine cells' set-up, as each harness.RunOne call
// makes it before its warmup: a machine and a populated structure.
func buildSimInputs(spec simSpec, o harness.Options) (setup, populate time.Duration) {
	t0 := time.Now()
	for range schemeLayers {
		for _, s := range simStructures {
			m := sim.New(sim.DefaultConfig(spec.cores))
			ds := newStructure(s, m.Mem, o)
			tp := time.Now()
			ds.Populate(m.Mem, workloads.NewRand(o.Seed))
			populate += time.Since(tp)
		}
	}
	return time.Since(t0), populate
}

func newStructure(name string, m *mem.Memory, o harness.Options) workloads.DataStructure {
	switch name {
	case harness.WorkloadHash:
		return workloads.NewHashtable(m, o.HashSlots)
	case harness.WorkloadBST:
		return workloads.NewBST(m, o.TreeKeys)
	default:
		return workloads.NewBTree(m, o.TreeKeys)
	}
}

// runSim is a simulator workload: passes over the nine cells until the
// measured time is used (at least two, so every cell's digest is checked
// against a repeat), then the cross-scheme final-state check on one core.
func runSim(spec simSpec, cfg runConfig) (*result, error) {
	res := newResult("sim", "cache", "stm", "core", "lazystm", "workloads")
	o := spec.options(cfg.seed)
	v := res.values

	var setups, pops []float64
	for i := 0; i < simSetupReps; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		s, p := buildSimInputs(spec, o)
		setups = append(setups, s.Seconds())
		pops = append(pops, p.Seconds())
	}
	v["setup_s"] = median(setups)
	v["workloads.populate_s"] = median(pops)

	var passes [][]cellRun
	start := nanotime()
	for {
		ps := nanotime()
		var pass []cellRun
		for _, sl := range schemeLayers {
			for _, st := range simStructures {
				pass = append(pass, runCell(spec, o, len(passes), sl.scheme, st))
			}
		}
		passes = append(passes, pass)
		now := nanotime()
		if cfg.trace && len(passes) == 2 {
			break
		}
		if len(passes) >= 2 && now-start+(now-ps) > int64(cfg.seconds*1e9) {
			break
		}
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	v["mem_mb"] = float64(rss) / (1 << 20)

	// Every cell is deterministic, so host interference can only add to its
	// time: a cell's time is its fastest pass. A sim request is one cell.
	best := make([]int64, len(passes[0]))
	for _, pass := range passes {
		for i, c := range pass {
			res.attempted++
			if c.Err != "" {
				res.failed++
				res.fail("%s/%s pass %d: %s", c.Scheme, c.Structure, c.Pass, c.Err)
				continue
			}
			if want := uint64(o.Ops / spec.cores * spec.cores); c.Stats.Commits != want {
				res.fail("%s/%s pass %d: %d commits, want one per op (%d)", c.Scheme, c.Structure, c.Pass, c.Stats.Commits, want)
			}
			if d := c.EndNS - c.StartNS; best[i] == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	var commits uint64
	var total int64
	lat := make([]float64, len(best))
	for i, d := range best {
		commits += passes[0][i].Stats.Commits
		total += d
		lat[i] = float64(d) / 1e3
	}
	lat = sortedCopy(lat)
	v["txn_per_s"] = ratio(float64(commits)*1e9, float64(total))
	v["svc_p50_us"] = percentile(lat, 500)
	v["svc_p90_us"] = percentile(lat, 900)
	v["ok_frac"] = 1 - ratio(float64(res.failed), float64(res.attempted))
	last := passes[len(passes)-1]
	simLayerMetrics(v, last)
	if cfg.trace {
		v["trace.txn_per_s_overhead"] = 1 - ratio(passNS(passes[0]), passNS(passes[1]))
		v["trace.svc_p50_overhead"] = ratio(cellP50(passes[1]), cellP50(passes[0])) - 1
	}

	tv := time.Now()
	verifySim(res, spec, o, passes)
	v["workloads.verify_s"] = time.Since(tv).Seconds()

	for _, c := range passes[0] {
		fmt.Printf("cell %s %s/%s digest=%s wall_cycles=%d commits=%d grants=%d\n",
			spec.name, c.Scheme, c.Structure, c.Digest, c.Wall, c.Stats.Commits, c.Sched.Grants)
	}
	if cfg.trace && cfg.spansDir != "" {
		if err := writeCellSpans(filepath.Join(cfg.spansDir, spec.name+".spans.jsonl"), last); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func passNS(pass []cellRun) (ns float64) {
	for _, c := range pass {
		ns += float64(c.EndNS - c.StartNS)
	}
	return ns
}

func cellP50(pass []cellRun) float64 {
	var lat []float64
	for _, c := range pass {
		lat = append(lat, float64(c.EndNS-c.StartNS)/1e3)
	}
	return percentile(sortedCopy(lat), 500)
}

// verifySim requires every cell's digest to repeat exactly in every pass
// and, on one core, every scheme to leave each structure in the same final
// state (harness.FinalStateHash).
func verifySim(res *result, spec simSpec, o harness.Options, passes [][]cellRun) {
	for _, pass := range passes[1:] {
		for i, c := range pass {
			if first := passes[0][i]; c.Digest != first.Digest {
				res.fail("%s/%s: counter digest %s in pass %d, %s in pass 0", c.Scheme, c.Structure, c.Digest, c.Pass, first.Digest)
			}
		}
	}
	if spec.cores != 1 {
		return
	}
	for _, st := range simStructures {
		var want uint64
		for i, sl := range schemeLayers {
			h, err := harness.FinalStateHash(sl.scheme, st, 1, o, updatePct)
			switch {
			case err != nil:
				res.fail("final state %s/%s: %v", sl.scheme, st, err)
			case i == 0:
				want = h
			case h != want:
				res.fail("final state of %s under %s is %016x, %s left %016x", st, sl.scheme, h, schemeLayers[0].scheme, want)
			}
		}
	}
}

// simLayerMetrics derives the simulator, cache and per-scheme metrics from
// one pass's counters and host times.
func simLayerMetrics(v map[string]float64, pass []cellRun) {
	var grants, leases, wall, commits, accesses uint64
	var l1h, l1m, l2h, l2m uint64
	var host int64
	for _, c := range pass {
		grants += c.Sched.Grants
		leases += c.Sched.Leases
		wall += c.Wall
		commits += c.Stats.Commits
		host += c.EndNS - c.StartNS
		l1h += c.Cache.L1Hits
		l1m += c.Cache.L1Misses
		l2h += c.Cache.L2Hits
		l2m += c.Cache.L2Misses
		v["cache.invalidations"] += float64(c.Cache.Invalidations)
		v["cache.back_invalidations"] += float64(c.Cache.BackInvalidations)
		v["cache.marked_drops"] += float64(c.Cache.MarkedDrops)
	}
	accesses = l1h + l1m
	v["sim.ops_per_s"] = ratio(float64(grants)*1e9, float64(host))
	v["sim.cycles_per_txn"] = ratio(float64(wall), float64(commits))
	v["sim.handoff_frac"] = ratio(float64(leases), float64(grants))
	v["sim.host_ns_per_grant"] = ratio(float64(host), float64(grants))
	v["sim.grants_per_txn"] = ratio(float64(grants), float64(commits))
	v["cache.l1_miss_frac"] = ratio(float64(l1m), float64(accesses))
	v["cache.l2_miss_frac"] = ratio(float64(l2m), float64(l2h+l2m))
	v["cache.accesses_per_grant"] = ratio(float64(accesses), float64(grants))

	for _, sl := range schemeLayers {
		var t stats.Totals
		t.Cycles = map[string]uint64{}
		var aborts, filtered, unfiltered, fast, full, aggressive uint64
		for _, c := range pass {
			if c.Scheme != sl.scheme {
				continue
			}
			for k, n := range c.Stats.Cycles {
				t.Cycles[k] += n
			}
			t.Commits += c.Stats.Commits
			aborts += c.Stats.TotalAborts()
			filtered += c.Stats.FilteredReads
			unfiltered += c.Stats.UnfilteredReads
			fast += c.Stats.FastValidations
			full += c.Stats.FullValidations
			aggressive += c.Stats.AggressiveCommits
		}
		n := float64(t.Commits)
		for _, cat := range cycleCategories {
			v[sl.layer+"."+cat.String()+"_cycles_per_txn"] = ratio(float64(t.Cycles[cat.String()]), n)
		}
		v[sl.layer+".aborts_per_kcommit"] = 1e3 * ratio(float64(aborts), n)
		if sl.layer == "core" {
			v["core.filtered_read_frac"] = ratio(float64(filtered), float64(filtered+unfiltered))
			v["core.fast_validation_frac"] = ratio(float64(fast), float64(fast+full))
			v["core.aggressive_commit_frac"] = ratio(float64(aggressive), n)
		}
	}
}

// writeCellSpans writes one harness.RunOne span per cell, with the
// counters taken at its boundary, as JSONL.
func writeCellSpans(path string, pass []cellRun) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for i := range pass {
		rec := struct {
			Name string `json:"name"`
			Span int    `json:"span"`
			*cellRun
		}{"harness.RunOne", i, &pass[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
