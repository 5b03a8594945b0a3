// Package service implements the open-loop transactional service cell: a
// bank/KV workload on the existing transactional structures, driven by a
// seeded arrival process with Zipfian key popularity, with per-request
// sojourn latency recorded into fixed-boundary histograms and a hot-key
// admission-control knob that sheds or serializes conflict-storm offenders
// through the irrevocable escalation ladder.
//
// Everything the package computes on the simulator backend derives only
// from deterministic simulated state (per-core arrival schedules, per-core
// admission bookkeeping, per-core histograms merged by commutative sums),
// so service figures keep the harness's byte-identity guarantee across
// worker counts and schedulers.
package service

import (
	"fmt"
	"math"
	"sort"

	"hastm.dev/hastm/internal/workloads"
)

// Zipf draws keys from {0, …, n-1} with P(k) ∝ 1/(k+1)^s by inverting the
// precomputed cumulative mass function. s = 0 is uniform; larger s
// concentrates popularity on low-numbered keys (key 0 is always the
// hottest). The draw consumes exactly one Rand value, so a generator
// embedded in a per-op seeded stream replays identically on retry and in
// the sequential oracle.
type Zipf struct {
	n   uint64
	s   float64
	cum []float64 // cum[i] = P(X <= i); cum[n-1] == 1
	// guide[j] is the first key i with cum[i] >= j/G for the G =
	// 1<<(53-shift) equal slices of [0, 1], so a draw in slice j lies in
	// keys guide[j]..guide[j+1] and Next searches only those.
	guide []uint32
	shift uint
}

// maxGuideBits caps the guide table at 1<<15 entries (128 KiB).
const maxGuideBits = 15

// NewZipf builds the inverse-CDF table for n keys with exponent s.
func NewZipf(n uint64, s float64) *Zipf {
	if n == 0 {
		panic("service: Zipf over an empty key space")
	}
	z := &Zipf{n: n, s: s, cum: make([]float64, n)}
	total := 0.0
	for i := uint64(0); i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	z.cum[n-1] = 1 // exact, despite rounding

	// About eight keys per guide slice: a draw's search then touches a
	// cache line or two of cum instead of log2(n) scattered ones.
	bits := uint(0)
	for bits < maxGuideBits && uint64(1)<<(bits+1) <= n/8 {
		bits++
	}
	g := 1 << bits
	z.guide = make([]uint32, g+1)
	i := 0
	for j := range z.guide {
		// One merge pass: j/g and cum both rise, and cum[n-1] == 1 stops
		// the walk for every j <= g.
		for x := float64(j) / float64(g); z.cum[i] < x; {
			i++
		}
		z.guide[j] = uint32(i)
	}
	z.shift = 53 - bits
	return z
}

// N returns the key-space size.
func (z *Zipf) N() uint64 { return z.n }

// S returns the skew exponent.
func (z *Zipf) S() float64 { return z.s }

// Next draws one key, consuming one value from r: the first key i with
// cum[i] >= u for a uniform u in [0, 1), the same key a binary search of
// the whole table returns.
func (z *Zipf) Next(r *workloads.Rand) uint64 {
	// 53 uniform bits, the full precision of a float64 in [0, 1).
	return z.keyAt(r.Next() >> 11)
}

// keyAt inverts the CDF at u = k/2^53 for a 53-bit k. The top bits of k
// pick u's guide slice exactly: j/G <= u < (j+1)/G.
func (z *Zipf) keyAt(k uint64) uint64 {
	u := float64(k) / (1 << 53)
	j := k >> z.shift
	lo, hi := z.guide[j], z.guide[j+1]
	return uint64(lo) + uint64(sort.SearchFloat64s(z.cum[lo:hi+1], u))
}

// Mass returns the theoretical probability of key k (for tests comparing
// empirical frequencies against the distribution).
func (z *Zipf) Mass(k uint64) float64 {
	if k >= z.n {
		panic(fmt.Sprintf("service: Zipf mass of key %d outside [0,%d)", k, z.n))
	}
	if k == 0 {
		return z.cum[0]
	}
	return z.cum[k] - z.cum[k-1]
}
