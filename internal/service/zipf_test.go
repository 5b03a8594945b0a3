package service

import (
	"math"
	"sort"
	"testing"

	"hastm.dev/hastm/internal/workloads"
)

// The generator is part of the deterministic replay contract: the same
// seed must produce the same key sequence forever, or committed-op logs
// stop replaying. This golden sequence pins it.
func TestZipfSeedStableSequence(t *testing.T) {
	z := NewZipf(100, 1.1)
	r := workloads.NewRand(42)
	want := []uint64{0, 9, 6, 0, 1, 6, 9, 7, 11, 1, 0, 29}
	for i, w := range want {
		if got := z.Next(r); got != w {
			t.Fatalf("draw %d: got %d, want %d (golden sequence changed — this breaks oplog replay)", i, got, w)
		}
	}
}

// Two generators with the same parameters must agree draw for draw, and
// each Next must consume exactly one Rand value — the admission
// controller's Classify preview and the oracle replay both re-decode
// requests from the same stream.
func TestZipfDeterministicAcrossInstances(t *testing.T) {
	a, b := NewZipf(64, 0.9), NewZipf(64, 0.9)
	ra, rb := workloads.NewRand(7), workloads.NewRand(7)
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(ra), b.Next(rb); x != y {
			t.Fatalf("draw %d: %d vs %d", i, x, y)
		}
		// Streams stay in lock-step only if Next consumed the same number
		// of values; interleave a raw draw to catch drift immediately.
		if x, y := ra.Next(), rb.Next(); x != y {
			t.Fatalf("rand streams diverged after draw %d", i)
		}
	}
}

// Empirical draw frequencies must track the theoretical mass function.
func TestZipfEmpiricalMatchesMass(t *testing.T) {
	const n, draws = 50, 200_000
	for _, s := range []float64{0, 0.9, 1.5} {
		z := NewZipf(n, s)
		r := workloads.NewRand(1234)
		counts := make([]uint64, n)
		for i := 0; i < draws; i++ {
			k := z.Next(r)
			if k >= n {
				t.Fatalf("s=%g: draw %d out of range", s, k)
			}
			counts[k]++
		}
		// Check every key carrying at least 1% mass within 15% relative
		// error; rarer keys within 5 absolute sigma.
		for k := uint64(0); k < n; k++ {
			mass := z.Mass(k)
			got := float64(counts[k]) / draws
			if mass >= 0.01 {
				if rel := math.Abs(got-mass) / mass; rel > 0.15 {
					t.Errorf("s=%g key %d: empirical %.4f vs mass %.4f (rel err %.2f)", s, k, got, mass, rel)
				}
			} else if sigma := math.Sqrt(mass * (1 - mass) / draws); math.Abs(got-mass) > 5*sigma+1e-9 {
				t.Errorf("s=%g key %d: empirical %.5f vs mass %.5f exceeds 5 sigma", s, k, got, mass)
			}
		}
		// Total mass must be exactly normalised.
		var total float64
		for k := uint64(0); k < n; k++ {
			total += z.Mass(k)
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("s=%g: masses sum to %.12f", s, total)
		}
	}
}

// s=0 must degenerate to the uniform distribution.
func TestZipfUniform(t *testing.T) {
	z := NewZipf(10, 0)
	for k := uint64(0); k < 10; k++ {
		if m := z.Mass(k); math.Abs(m-0.1) > 1e-12 {
			t.Fatalf("mass(%d) = %v, want 0.1", k, m)
		}
	}
}

// The guide-table draw must return exactly the key a binary search of the
// whole CDF returns, for every draw: the key sequence is part of the
// replay contract, so "close" is not enough.
func TestZipfGuideMatchesFullSearch(t *testing.T) {
	for _, c := range []struct {
		n uint64
		s float64
	}{{1, 0}, {2, .5}, {7, .99}, {4096, .99}, {1 << 18, 0}, {1000, 2}, {100000, 1.2}} {
		z := NewZipf(c.n, c.s)
		check := func(k uint64, got uint64) {
			t.Helper()
			u := float64(k) / (1 << 53)
			if want := uint64(sort.SearchFloat64s(z.cum, u)); got != want {
				t.Fatalf("n=%d s=%v u=%v: got key %d, full search gives %d", c.n, c.s, u, got, want)
			}
		}
		r, ref := workloads.NewRand(c.n), workloads.NewRand(c.n)
		for i := 0; i < 200_000; i++ {
			got := z.Next(r)
			check(ref.Next()>>11, got)
		}
		// Both sides of every guide-slice boundary.
		for j := uint64(0); j+1 < uint64(len(z.guide)); j++ {
			for _, k := range []uint64{j << z.shift, (j+1)<<z.shift - 1} {
				check(k, z.keyAt(k))
			}
		}
	}
}
