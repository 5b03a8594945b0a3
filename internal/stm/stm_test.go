package stm

import (
	"errors"
	"testing"

	"hastm.dev/hastm/internal/cache"
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stats"
	"hastm.dev/hastm/internal/tm"
)

func testMachine(cores int) *sim.Machine {
	cfg := sim.DefaultConfig(cores)
	cfg.L1 = cache.Config{SizeBytes: 8 << 10, Assoc: 4}
	cfg.L2 = cache.Config{SizeBytes: 64 << 10, Assoc: 8}
	return sim.New(cfg)
}

func lineCfg() tm.Config {
	return tm.Config{Granularity: tm.LineGranularity, ValidateEvery: 64}
}

func objCfg() tm.Config {
	return tm.Config{Granularity: tm.ObjectGranularity, ValidateEvery: 64}
}

// constructor builds a system of one versioning policy.
type constructor func(*sim.Machine, tm.Config) *System

type policyCase struct {
	name string
	new  constructor
}

// policies lists the three versioning policies by constructor.
// policies[:2] validate every read set; policies[1:] defer their writes.
var policies = []policyCase{
	{"eager", New},
	{"deferred", NewLazy},
	{"mvcc", NewMVCC},
}

// forEachPolicy runs f as one subtest per versioning policy: engine
// behaviour the policies share is checked once for each.
func forEachPolicy(t *testing.T, f func(t *testing.T, newSys constructor)) {
	forPolicies(t, policies, f)
}

func forPolicies(t *testing.T, ps []policyCase, f func(t *testing.T, newSys constructor)) {
	for _, p := range ps {
		t.Run(p.name, func(t *testing.T) { f(t, p.new) })
	}
}

func TestRecordHelpers(t *testing.T) {
	if !IsVersion(1) || !IsVersion(3) {
		t.Error("odd values must be versions")
	}
	if IsVersion(0x10040) {
		t.Error("even values must be owner pointers")
	}
	if NextVersion(1) != 3 {
		t.Error("NextVersion must increment by 2")
	}
}

func TestRecordTableMapping(t *testing.T) {
	m := mem.New()
	tab := NewRecordTable(m)
	if tab.Base()%mem.LineSize != 0 {
		t.Fatal("table base not line-aligned")
	}
	// Same cache line -> same record.
	if tab.RecordFor(0x10000) != tab.RecordFor(0x10038) {
		t.Error("addresses on one line must share a record")
	}
	// Adjacent lines -> adjacent (line-spaced) records.
	r0, r1 := tab.RecordFor(0x10000), tab.RecordFor(0x10040)
	if r1 != r0+mem.LineSize {
		t.Errorf("records not line-spaced: %#x then %#x", r0, r1)
	}
	// Bits above 17 wrap (table has 4096 entries).
	if tab.RecordFor(0x10000) != tab.RecordFor(0x10000+(1<<18)) {
		t.Error("bit 18 must not change the record index")
	}
	// Every record starts shared at the initial version.
	if v := m.Load(tab.RecordFor(0x10000)); v != VersionInit {
		t.Errorf("fresh record = %d, want %d", v, VersionInit)
	}
}

func TestCommitPublishes(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		addr := machine.Mem.Alloc(64, 8)
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(addr, 11)
				tx.Store(addr+8, 22)
				return nil
			})
			if err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		if machine.Mem.Load(addr) != 11 || machine.Mem.Load(addr+8) != 22 {
			t.Fatal("committed values not visible")
		}
		if machine.Stats.Commits() != 1 {
			t.Fatalf("commits = %d", machine.Stats.Commits())
		}
		// Records written by the transaction must be back in the shared state.
		rec := s.Table().RecordFor(addr)
		if v := machine.Mem.Load(rec); !IsVersion(v) || v == VersionInit {
			t.Fatalf("record after commit = %#x, want an incremented version", v)
		}
	})
}

func TestBodyErrorRollsBack(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		addr := machine.Mem.Alloc(64, 8)
		machine.Mem.Store(addr, 5)
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
			t.Fatalf("value after rollback = %d, want 5", got)
		}
		rec := s.Table().RecordFor(addr)
		if v := machine.Mem.Load(rec); !IsVersion(v) {
			t.Fatalf("record still owned after rollback: %#x", v)
		}
	})
}

func TestUserAbort(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		addr := machine.Mem.Alloc(64, 8)
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(addr, 1)
				tx.Abort()
				return nil
			})
			if !errors.Is(err, tm.ErrUserAbort) {
				t.Errorf("err = %v, want ErrUserAbort", err)
			}
		})
		if machine.Mem.Load(addr) != 0 {
			t.Fatal("user abort did not roll back")
		}
	})
}

func TestReadIsolationUnderConflict(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		// Two cores increment a shared counter transactionally; the final
		// value must equal the total number of increments (atomicity), and
		// at least one conflict abort should have occurred given the tight
		// interleaving.
		machine := testMachine(2)
		s := newSys(machine, lineCfg())
		ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		const per = 50
		prog := func(c *sim.Ctx) {
			th := s.Thread(c)
			for i := 0; i < per; i++ {
				err := th.Atomic(func(tx tm.Txn) error {
					v := tx.Load(ctr)
					tx.Store(ctr, v+1)
					return nil
				})
				if err != nil {
					t.Errorf("Atomic: %v", err)
				}
			}
		}
		machine.Run(prog, prog)
		if got := machine.Mem.Load(ctr); got != 2*per {
			t.Fatalf("counter = %d, want %d", got, 2*per)
		}
	})
}

func TestConflictingWritersSerialize(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		// Writers move value between two words keeping an invariant sum.
		machine := testMachine(4)
		s := newSys(machine, lineCfg())
		a := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		b := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		machine.Mem.Store(a, 1000)
		prog := func(c *sim.Ctx) {
			th := s.Thread(c)
			for i := 0; i < 30; i++ {
				_ = th.Atomic(func(tx tm.Txn) error {
					va := tx.Load(a)
					vb := tx.Load(b)
					if va == 0 {
						return nil
					}
					tx.Store(a, va-1)
					tx.Store(b, vb+1)
					return nil
				})
			}
		}
		machine.Run(prog, prog, prog, prog)
		sum := machine.Mem.Load(a) + machine.Mem.Load(b)
		if sum != 1000 {
			t.Fatalf("invariant violated: sum = %d", sum)
		}
	})
}

func TestObjectGranularity(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, objCfg())
		obj := AllocObject(machine.Mem, 16) // two fields
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			err := th.Atomic(func(tx tm.Txn) error {
				tx.StoreObj(obj, 8, 7)
				tx.StoreObj(obj, 16, 8)
				if tx.LoadObj(obj, 8) != 7 {
					t.Error("read-after-write within txn failed")
				}
				return nil
			})
			if err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		if machine.Mem.Load(obj+8) != 7 || machine.Mem.Load(obj+16) != 8 {
			t.Fatal("object fields not committed")
		}
		if v := machine.Mem.Load(obj); !IsVersion(v) {
			t.Fatalf("header record left owned: %#x", v)
		}
	})
}

func TestObjectHeaderOffsetPanics(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, objCfg())
		obj := AllocObject(machine.Mem, 16)
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			defer func() {
				if recover() == nil {
					t.Error("offset 0 must panic: it overlaps the record")
				}
			}()
			_ = th.Atomic(func(tx tm.Txn) error {
				tx.LoadObj(obj, 0)
				return nil
			})
		})
	})
}

func TestWriteAfterReadUpgrade(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		// Reading then writing the same record must commit cleanly: the
		// validation path has to accept self-owned records acquired at the
		// version that was read.
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		addr := machine.Mem.Alloc(64, 8)
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			err := th.Atomic(func(tx tm.Txn) error {
				v := tx.Load(addr)
				tx.Store(addr, v+1)
				_ = tx.Load(addr) // read again after owning
				return nil
			})
			if err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		if machine.Mem.Load(addr) != 1 {
			t.Fatal("upgrade transaction lost its write")
		}
		if machine.Stats.TotalAborts() != 0 {
			t.Fatalf("unexpected aborts: %d", machine.Stats.TotalAborts())
		}
	})
}

func TestNestedCommitMerges(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		a := machine.Mem.Alloc(64, 8)
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(a, 1)
				return tx.Atomic(func(in tm.Txn) error {
					in.Store(a+8, 2)
					return nil
				})
			})
			if err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		if machine.Mem.Load(a) != 1 || machine.Mem.Load(a+8) != 2 {
			t.Fatal("nested writes not committed with parent")
		}
	})
}

func TestNestedPartialRollback(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		a := machine.Mem.Alloc(128, 8)
		boom := errors.New("inner fails")
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(a, 1)
				if err := tx.Atomic(func(in tm.Txn) error {
					in.Store(a+64, 2) // a different record (next line)
					in.Store(a, 99)   // overwrite the outer value
					return boom
				}); !errors.Is(err, boom) {
					t.Errorf("nested err = %v", err)
				}
				// Partial rollback: outer write survives, inner undone.
				if got := tx.Load(a); got != 1 {
					t.Errorf("outer value after partial rollback = %d", got)
				}
				if got := tx.Load(a + 64); got != 0 {
					t.Errorf("inner value not rolled back: %d", got)
				}
				return nil
			})
			if err != nil {
				t.Errorf("Atomic: %v", err)
			}
		})
		if machine.Mem.Load(a) != 1 || machine.Mem.Load(a+64) != 0 {
			t.Fatal("memory after partial rollback wrong")
		}
		// The inner record must have been released.
		rec := s.Table().RecordFor(a + 64)
		if v := machine.Mem.Load(rec); !IsVersion(v) {
			t.Fatalf("inner record still owned: %#x", v)
		}
	})
}

func TestDeepNesting(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		a := machine.Mem.Alloc(64, 8)
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			var depth func(tx tm.Txn, n uint64) error
			depth = func(tx tm.Txn, n uint64) error {
				if n == 0 {
					tx.Store(a, tx.Load(a)+1)
					return nil
				}
				return tx.Atomic(func(in tm.Txn) error { return depth(in, n-1) })
			}
			if err := th.Atomic(func(tx tm.Txn) error { return depth(tx, 8) }); err != nil {
				t.Errorf("deep nesting: %v", err)
			}
		})
		if machine.Mem.Load(a) != 1 {
			t.Fatal("deeply nested write lost")
		}
	})
}

func TestRetryWakesOnChange(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(2)
		s := newSys(machine, lineCfg())
		flag := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		out := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		consumer := func(c *sim.Ctx) {
			th := s.Thread(c)
			err := th.Atomic(func(tx tm.Txn) error {
				if tx.Load(flag) == 0 {
					tx.Retry()
				}
				tx.Store(out, tx.Load(flag))
				return nil
			})
			if err != nil {
				t.Errorf("consumer: %v", err)
			}
		}
		producer := func(c *sim.Ctx) {
			th := s.Thread(c)
			c.Exec(5000) // let the consumer block first
			if err := th.Atomic(func(tx tm.Txn) error {
				tx.Store(flag, 42)
				return nil
			}); err != nil {
				t.Errorf("producer: %v", err)
			}
		}
		machine.Run(consumer, producer)
		if machine.Mem.Load(out) != 42 {
			t.Fatalf("consumer saw %d, want 42", machine.Mem.Load(out))
		}
	})
}

func TestOrElseTakesSecondAlternative(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		q1 := machine.Mem.Alloc(mem.LineSize, mem.LineSize) // empty queue
		q2 := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		out := machine.Mem.Alloc(2*mem.LineSize, mem.LineSize)
		machine.Mem.Store(q2, 9)
		var got uint64
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			err := th.Atomic(func(tx tm.Txn) error {
				return tx.OrElse(
					func(a tm.Txn) error {
						// Stores of a retrying alternative are rolled back.
						a.Store(out, 1)
						a.Store(out+mem.LineSize, 1)
						v := a.Load(q1)
						if v == 0 {
							a.Retry()
						}
						got = v
						return nil
					},
					func(a tm.Txn) error {
						v := a.Load(q2)
						if v == 0 {
							a.Retry()
						}
						a.Store(out, v)
						got = v
						return nil
					},
				)
			})
			if err != nil {
				t.Errorf("orElse: %v", err)
			}
		})
		if got != 9 {
			t.Fatalf("orElse result = %d, want 9", got)
		}
		if o, leaked := machine.Mem.Load(out), machine.Mem.Load(out+mem.LineSize); o != 9 || leaked != 0 {
			t.Fatalf("out = %d, %d; want the second alternative's 9 and no store of the first", o, leaked)
		}
	})
}

func TestOrElseAllRetryPropagates(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(2)
		s := newSys(machine, lineCfg())
		q1 := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		q2 := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		out := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		consumer := func(c *sim.Ctx) {
			th := s.Thread(c)
			err := th.Atomic(func(tx tm.Txn) error {
				return tx.OrElse(
					func(a tm.Txn) error {
						if a.Load(q1) == 0 {
							a.Retry()
						}
						a.Store(out, a.Load(q1))
						return nil
					},
					func(a tm.Txn) error {
						if a.Load(q2) == 0 {
							a.Retry()
						}
						a.Store(out, a.Load(q2))
						return nil
					},
				)
			})
			if err != nil {
				t.Errorf("consumer: %v", err)
			}
		}
		producer := func(c *sim.Ctx) {
			th := s.Thread(c)
			c.Exec(8000)
			_ = th.Atomic(func(tx tm.Txn) error {
				tx.Store(q2, 5)
				return nil
			})
		}
		machine.Run(consumer, producer)
		if machine.Mem.Load(out) != 5 {
			t.Fatalf("out = %d, want 5", machine.Mem.Load(out))
		}
	})
}

func TestGCPauseDoesNotAbort(t *testing.T) {
	machine := testMachine(1)
	s := New(machine, lineCfg())
	addr := machine.Mem.Alloc(64, 8)
	var reads, writes, undos int
	machine.Run(func(c *sim.Ctx) {
		th := s.Thread(c).(*Thread)
		err := th.Atomic(func(tx tm.Txn) error {
			tx.Load(addr)
			tx.Store(addr, 3)
			th.GCPause(func(r, w []RecEntry, u []UndoEntry) {
				reads, writes, undos = len(r), len(w), len(u)
			})
			tx.Store(addr+8, 4)
			return nil
		})
		if err != nil {
			t.Errorf("Atomic across GC pause: %v", err)
		}
	})
	if reads == 0 || writes == 0 || undos == 0 {
		t.Fatalf("log introspection empty: r=%d w=%d u=%d", reads, writes, undos)
	}
	if machine.Mem.Load(addr) != 3 || machine.Mem.Load(addr+8) != 4 {
		t.Fatal("transaction interrupted by GC pause lost writes")
	}
	if machine.Stats.TotalAborts() != 0 {
		t.Fatal("GC pause must not abort the transaction")
	}
}

// GCPause inspects the write set and undo log only the eager policy keeps;
// on a deferred-update thread it must refuse rather than report empty logs.
func TestGCPauseRejectsDeferredPolicies(t *testing.T) {
	forPolicies(t, policies[1:], func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c).(*Thread)
			defer func() {
				if recover() == nil {
					t.Error("GCPause on a deferred-update thread must panic")
				}
			}()
			_ = th.Atomic(func(tx tm.Txn) error {
				th.GCPause(nil)
				return nil
			})
		})
	})
}

func TestAccessOutsideAtomicPanics(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		addr := machine.Mem.Alloc(64, 8)
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c).(*Thread)
			defer func() {
				if recover() == nil {
					t.Error("Load outside Atomic must panic")
				}
			}()
			th.Load(addr)
		})
	})
}

func TestContentionPolicies(t *testing.T) {
	for _, pol := range []tm.Policy{tm.PoliteBackoff, tm.AbortSelf, tm.Wait} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			forEachPolicy(t, func(t *testing.T, newSys constructor) {
				machine := testMachine(2)
				cfg := lineCfg()
				cfg.Policy = pol
				s := newSys(machine, cfg)
				ctr := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
				prog := func(c *sim.Ctx) {
					th := s.Thread(c)
					for i := 0; i < 25; i++ {
						if err := th.Atomic(func(tx tm.Txn) error {
							tx.Store(ctr, tx.Load(ctr)+1)
							return nil
						}); err != nil {
							t.Errorf("Atomic: %v", err)
						}
					}
				}
				machine.Run(prog, prog)
				if got := machine.Mem.Load(ctr); got != 50 {
					t.Fatalf("counter = %d, want 50", got)
				}
			})
		})
	}
}

func TestPeriodicValidationAborts(t *testing.T) {
	forPolicies(t, policies[:2], func(t *testing.T, newSys constructor) {
		// A transaction whose read set is invalidated mid-flight must be
		// aborted by periodic validation rather than running to commit.
		machine := testMachine(2)
		cfg := lineCfg()
		cfg.ValidateEvery = 4
		s := newSys(machine, cfg)
		data := machine.Mem.Alloc(16*mem.LineSize, mem.LineSize)
		sync := machine.Mem.Alloc(mem.LineSize, mem.LineSize)
		reader := func(c *sim.Ctx) {
			th := s.Thread(c)
			signaled := false
			_ = th.Atomic(func(tx tm.Txn) error {
				tx.Load(data)
				if !signaled {
					signaled = true
					c.Store(sync, 1) // non-transactional signal, first attempt only
					for c.Load(sync) != 2 {
						c.Exec(1)
					}
				}
				// Keep reading: periodic validation must fire and abort the
				// first attempt.
				for i := uint64(1); i < 16; i++ {
					tx.Load(data + i*mem.LineSize)
				}
				return nil
			})
		}
		writer := func(c *sim.Ctx) {
			th := s.Thread(c)
			for c.Load(sync) != 1 {
				c.Exec(1)
			}
			_ = th.Atomic(func(tx tm.Txn) error {
				tx.Store(data, 77)
				return nil
			})
			c.Store(sync, 2)
		}
		machine.Run(reader, writer)
		if machine.Stats.ConflictAborts() == 0 {
			t.Fatal("expected at least one conflict abort from periodic validation")
		}
		if machine.Stats.Commits() < 2 {
			t.Fatalf("both transactions should eventually commit, got %d", machine.Stats.Commits())
		}
	})
}

func TestStatsBreakdownHasBarrierCosts(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		machine := testMachine(1)
		s := newSys(machine, lineCfg())
		data := machine.Mem.Alloc(64*mem.LineSize, mem.LineSize)
		machine.Run(func(c *sim.Ctx) {
			th := s.Thread(c)
			_ = th.Atomic(func(tx tm.Txn) error {
				for i := uint64(0); i < 64; i++ {
					tx.Load(data + i*mem.LineSize)
				}
				tx.Store(data, 1)
				return nil
			})
		})
		st := machine.Stats
		for _, cat := range []stats.Category{stats.RdBar, stats.WrBar, stats.Validate, stats.Commit, stats.TLS, stats.App} {
			if st.CategoryCycles(cat) == 0 {
				t.Errorf("category %v has zero cycles", cat)
			}
		}
	})
}

// Concurrency soak for the race detector: every policy hammers one shared
// counter array from four cores; the commit protocol must serialise every
// increment (the total equals the transaction count) with all Go-side
// state (logs, write buffers, MVCC history maps) race-free.
func TestConcurrentCountersSoak(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		const cores, txns, slots = 4, 30, 4
		machine := testMachine(cores)
		s := newSys(machine, lineCfg())
		base := machine.Mem.Alloc(slots*64, 64)
		progs := make([]sim.Program, cores)
		for i := range progs {
			id := i
			progs[i] = func(c *sim.Ctx) {
				th := s.Thread(c)
				for n := 0; n < txns; n++ {
					if err := th.Atomic(func(tx tm.Txn) error {
						slot := base + uint64((id+n)%slots)*64
						tx.Store(slot, tx.Load(slot)+1)
						return nil
					}); err != nil {
						panic(err)
					}
				}
			}
		}
		machine.Run(progs...)
		if err := machine.CheckHealth(); err != nil {
			t.Fatal(err)
		}
		var total uint64
		for i := uint64(0); i < slots; i++ {
			total += machine.Mem.Load(base + i*64)
		}
		if total != cores*txns {
			t.Fatalf("counter total = %d, want %d — a lost update slipped through commit", total, cores*txns)
		}
	})
}

// Determinism: the same seeded two-core program produces identical final
// state and simulated time on every run, for every policy.
func TestSchemeDeterminism(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, newSys constructor) {
		run := func() (uint64, uint64) {
			machine := testMachine(2)
			s := newSys(machine, lineCfg())
			base := machine.Mem.Alloc(4*64, 64)
			progs := make([]sim.Program, 2)
			for i := range progs {
				id := i
				progs[i] = func(c *sim.Ctx) {
					th := s.Thread(c)
					for n := 0; n < 20; n++ {
						if err := th.Atomic(func(tx tm.Txn) error {
							slot := base + uint64((id+n)%4)*64
							tx.Store(slot, tx.Load(slot)+uint64(id+1))
							return nil
						}); err != nil {
							panic(err)
						}
					}
				}
			}
			wall := machine.Run(progs...)
			var sum uint64
			for i := uint64(0); i < 4; i++ {
				sum += machine.Mem.Load(base + i*64)
			}
			return wall, sum
		}
		w1, s1 := run()
		w2, s2 := run()
		if w1 != w2 || s1 != s2 {
			t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", w1, s1, w2, s2)
		}
	})
}
