// Command tmsim runs one workload under one concurrency-control scheme on
// the simulated machine and prints timing, the per-category cycle
// breakdown and the TM event counters — the tool for poking at a single
// configuration that the figure harness aggregates over.
//
// Usage:
//
//	tmsim -scheme hastm -workload btree -cores 4 -ops 2048
//	tmsim -scheme stm -workload hashtable -breakdown
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hastm.dev/hastm/internal/harness"
	"hastm.dev/hastm/internal/stats"
)

func main() {
	var (
		scheme   = flag.String("scheme", "hastm", strings.Join(harness.Schemes(), "|"))
		workload = flag.String("workload", "btree", "hashtable|bst|btree|objbst")
		cores    = flag.Int("cores", 1, "number of cores")
		ops      = flag.Int("ops", 2048, "total operations (split across cores)")
		updates  = flag.Int("updates", 20, "percent of operations that mutate")
		seed     = flag.Uint64("seed", 1, "deterministic seed")
		keys     = flag.Uint64("keys", 8192, "initial tree keys / half the hash key space")
		trace    = flag.Int("trace", 0, "print the first N transaction-level trace events")
	)
	flag.Parse()

	m, err := harness.RunOne(*scheme, *workload, *cores, harness.Options{
		Ops:       *ops,
		HashSlots: *keys,
		TreeKeys:  *keys,
		Seed:      *seed,
		TraceMax:  *trace,
	}, *updates)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tmsim: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("scheme=%s workload=%s cores=%d ops=%d updates=%d%%\n",
		*scheme, *workload, *cores, *ops, *updates)
	fmt.Printf("wall cycles: %d   (%.1f cycles/op)\n",
		m.WallCycles, float64(m.WallCycles)/float64(*ops))
	fmt.Printf("commits: %d  aborts: %d  retries waited: %d\n",
		m.Stats.Commits(), m.Stats.TotalAborts(), sumRetries(m.Stats))

	fmt.Println("\ncycle breakdown:")
	for _, s := range m.Stats.Breakdown() {
		fmt.Printf("  %-10s %8.1f%%  (%d cycles)\n", s.Category, s.Share*100, s.Cycles)
	}

	fmt.Println("\nabort causes:")
	for _, c := range stats.AbortCauses() {
		if n := m.Stats.Aborts(c); n > 0 {
			fmt.Printf("  %-20s %d\n", c, n)
		}
	}

	fmt.Println("\nTM event counters (summed over cores):")
	var agg stats.Core
	for i := range m.Stats.Cores {
		c := &m.Stats.Cores[i]
		agg.FilteredReads += c.FilteredReads
		agg.UnfilteredReads += c.UnfilteredReads
		agg.FastValidations += c.FastValidations
		agg.FullValidations += c.FullValidations
		agg.ReadsLogged += c.ReadsLogged
		agg.ReadLogsSkipped += c.ReadLogsSkipped
		agg.AggressiveCommits += c.AggressiveCommits
		agg.CautiousCommits += c.CautiousCommits
		agg.HTMFallbacks += c.HTMFallbacks
	}
	fmt.Printf("  filtered reads:     %d\n", agg.FilteredReads)
	fmt.Printf("  unfiltered reads:   %d\n", agg.UnfilteredReads)
	fmt.Printf("  reads logged:       %d\n", agg.ReadsLogged)
	fmt.Printf("  read logs skipped:  %d\n", agg.ReadLogsSkipped)
	fmt.Printf("  fast validations:   %d\n", agg.FastValidations)
	fmt.Printf("  full validations:   %d\n", agg.FullValidations)
	fmt.Printf("  aggressive commits: %d\n", agg.AggressiveCommits)
	fmt.Printf("  cautious commits:   %d\n", agg.CautiousCommits)
	fmt.Printf("  hytm sw fallbacks:  %d\n", agg.HTMFallbacks)

	if *trace > 0 && m.Trace != nil {
		fmt.Printf("\nfirst %d trace events:\n", *trace)
		m.Trace.Render(os.Stdout, *trace)
	}

	h := m.CacheStats
	fmt.Println("\ncache:")
	fmt.Printf("  L1 hits/misses: %d/%d   L2 hits/misses: %d/%d\n", h.L1Hits, h.L1Misses, h.L2Hits, h.L2Misses)
	fmt.Printf("  invalidations: %d  back-invalidations: %d  evictions: %d  marked drops: %d  prefetch fills: %d\n",
		h.Invalidations, h.BackInvalidations, h.Evictions, h.MarkedDrops, h.PrefetchFills)
}

func sumRetries(m *stats.Machine) uint64 {
	var t uint64
	for i := range m.Cores {
		t += m.Cores[i].Retries
	}
	return t
}
