package stm

import (
	"errors"
	"testing"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stats"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// Tests of the deferred-buffer and mvcc-snapshot policies' own behaviour:
// the commit sandbox, read-through-own-writes and the snapshot read path.

// A deferred-update abort is invisible by construction: no store reaches
// memory before the commit protocol, so a body error must leave memory AND
// the record exactly as they were.
func TestBodyErrorPublishesNothing(t *testing.T) {
	forPolicies(t, policies[1:], func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		addr := machine.Mem.Alloc(64, 8)
		machine.Mem.Store(addr, 5)
		rec := s.Table().RecordFor(addr)
		recBefore := machine.Mem.Load(rec)
		boom := errors.New("boom")
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			if err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(addr, 99)
				return boom
			}); !errors.Is(err, boom) {
				t.Errorf("err = %v", err)
			}
		})
		if got := machine.Mem.Load(addr); got != 5 {
			t.Fatalf("value after body error = %d, want 5", got)
		}
		if got := machine.Mem.Load(rec); got != recBefore {
			t.Fatalf("record touched by an attempt that never committed: %#x -> %#x", recBefore, got)
		}
	})
}

// The commit sandbox: a transaction whose read set fails commit-time
// validation must publish NOTHING — its buffered stores die with the
// attempt, and the records it acquired go back at their original displaced
// versions.
func TestFailedCommitIsSandboxed(t *testing.T) {
	machine := testMachine(1)
	s := NewLazy(machine, lineCfg())
	in := machine.Mem.Alloc(64, 8)  // read by the transaction
	out := machine.Mem.Alloc(64, 8) // written by the transaction
	machine.Mem.Store(in, 1)
	inRec := s.Table().RecordFor(in)
	outRec := s.Table().RecordFor(out)
	outVerBefore := machine.Mem.Load(outRec)

	attempt := 0
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c).(*Thread)
		if err := th.Atomic(func(tx tm.Txn) error {
			attempt++
			tx.Load(in)
			if attempt == 1 {
				// A "foreign" commit between the read and our commit: bump
				// the read record's version directly (zero simulated cost,
				// exactly what a concurrent committer's release does).
				v := machine.Mem.Load(inRec)
				machine.Mem.Store(inRec, NextVersion(v))
			}
			tx.Store(out, uint64(100*attempt))
			return nil
		}); err != nil {
			t.Errorf("Atomic: %v", err)
		}
	})
	if attempt != 2 {
		t.Fatalf("attempts = %d, want 2 (one validation abort, one commit)", attempt)
	}
	if got := machine.Mem.Load(out); got != 200 {
		t.Fatalf("out = %d, want 200 — the failed attempt's 100 must never be visible", got)
	}
	if got := machine.Stats.Aborts(stats.AbortValidation); got != 1 {
		t.Fatalf("validation aborts = %d, want 1", got)
	}
	// The failed commit acquired outRec and must have released it at its
	// ORIGINAL version; the successful commit then bumped it exactly once.
	if got, want := machine.Mem.Load(outRec), NextVersion(outVerBefore); got != want {
		t.Fatalf("out record = %#x, want exactly one bump to %#x", got, want)
	}
}

// Read-through-own-writes: a load after a buffered store sees the newest
// buffered value without logging a read, and the latest value per address
// is what commits.
func TestReadThroughOwnWrites(t *testing.T) {
	forPolicies(t, policies[1:], func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		addr := machine.Mem.Alloc(64, 8)
		machine.Mem.Store(addr, 7)
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			if err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(addr, 40)
				if v := tx.Load(addr); v != 40 {
					t.Errorf("read-through saw %d, want 40", v)
				}
				tx.Store(addr, 41)
				if v := tx.Load(addr); v != 41 {
					t.Errorf("read-through saw %d, want 41", v)
				}
				return nil
			}); err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		if got := machine.Mem.Load(addr); got != 41 {
			t.Fatalf("committed %d, want the latest buffered value 41", got)
		}
		if hits := machine.Telem.Count(telemetry.WriteBufferHits); hits != 2 {
			t.Fatalf("write_buffer_hits = %d, want 2", hits)
		}
	})
}

// MVCC: read-only transactions never abort. A writer core continuously
// displaces versions under a reader core; every reader transaction must
// commit on its first attempt with zero aborts of any cause, the snapshot
// counters must show the traffic, and snapshot_aborts must stay zero.
func TestMVCCReadOnlyNeverAborts(t *testing.T) {
	const words = 8
	machine := testMachine(2)
	s := NewMVCC(machine, lineCfg())
	base := machine.Mem.Alloc(words*64, 64)
	machine.Run(
		func(c *sim.Ctx) { // writer
			th := s.Thread(c)
			for i := 0; i < 40; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					for w := uint64(0); w < words; w++ {
						tx.Store(base+w*64, uint64(i))
					}
					return nil
				}); err != nil {
					panic(err)
				}
			}
		},
		func(c *sim.Ctx) { // read-only scanner
			th := s.Thread(c)
			for i := 0; i < 40; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					first := tx.Load(base)
					for w := uint64(1); w < words; w++ {
						if v := tx.Load(base + w*64); v != first {
							// Every writer commit stores one value to all
							// words, so any consistent snapshot is uniform.
							t.Errorf("torn snapshot: word %d = %d, word 0 = %d", w, v, first)
						}
					}
					return nil
				}); err != nil {
					panic(err)
				}
			}
		},
	)
	if err := machine.CheckHealth(); err != nil {
		t.Fatal(err)
	}
	if got := machine.Stats.Cores[1].TotalAborts(); got != 0 {
		t.Fatalf("read-only core aborted %d times; MVCC snapshot reads must never abort", got)
	}
	if got := machine.Telem.Count(telemetry.SnapshotAborts); got != 0 {
		t.Fatalf("snapshot_aborts = %d, want 0", got)
	}
	if got := machine.Telem.Count(telemetry.SnapshotReads); got == 0 {
		t.Fatal("snapshot_reads = 0; the reader never took the snapshot path")
	}
}

// MVCC first-store transitions: a current snapshot upgrades in place; a
// stale one restarts pinned to writer mode — exactly once, with no abort
// counted.
func TestMVCCUpgradeAndWriterRestart(t *testing.T) {
	machine := testMachine(1)
	s := NewMVCC(machine, lineCfg())
	a := machine.Mem.Alloc(64, 8)
	b := machine.Mem.Alloc(64, 8)
	aRec := s.Table().RecordFor(a)
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c)
		// Current snapshot: read then store upgrades in place.
		if err := th.Atomic(func(tx tm.Txn) error {
			tx.Store(b, tx.Load(a)+1)
			return nil
		}); err != nil {
			t.Errorf("upgrade txn: %v", err)
		}
		// Stale snapshot: a foreign version bump lands between the logged
		// read and the first store, so the upgrade must fail and the attempt
		// restart in writer mode.
		attempt := 0
		if err := th.Atomic(func(tx tm.Txn) error {
			attempt++
			v := tx.Load(a)
			if attempt == 1 {
				machine.Mem.Store(aRec, NextVersion(machine.Mem.Load(aRec)))
			}
			tx.Store(b, v+2)
			return nil
		}); err != nil {
			t.Errorf("restart txn: %v", err)
		}
		if attempt != 2 {
			t.Errorf("attempts = %d, want 2 (restart re-executes once)", attempt)
		}
	})
	if got := machine.Telem.Count(telemetry.MVCCUpgrades); got != 1 {
		t.Fatalf("mvcc_upgrades = %d, want 1", got)
	}
	if got := machine.Telem.Count(telemetry.MVCCWriterRestarts); got != 1 {
		t.Fatalf("mvcc_writer_restarts = %d, want 1", got)
	}
	if got := machine.Stats.TotalAborts(); got != 0 {
		t.Fatalf("aborts = %d; a writer restart must not be counted as an abort", got)
	}
	if got := machine.Stats.Commits(); got != 2 {
		t.Fatalf("commits = %d, want 2", got)
	}
}
