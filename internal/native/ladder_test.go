package native

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// The escalation ladder's mutual exclusion, checked directly: revocable
// bodies count themselves in and out of a test-local in-flight counter,
// and every serialized body asserts that nothing revocable is running
// while it holds the counter still for a few yields. CI runs this under
// -race with -cpu 1,2,4, so the slot handoff is exercised with fewer Ps
// than goroutines too.
func TestLadderMutualExclusion(t *testing.T) {
	const (
		goroutines = 6
		rounds     = 300
	)
	sys, m, words := newSys(t, goroutines, tm.Config{Progress: tm.Progress{RetryBudget: 2}})
	var inflight, serial atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id).(*Thread)
			word := words + uint64(id%4)*mem.LineSize/2
			for n := 0; n < rounds; n++ {
				var err error
				if n%7 == id%7 {
					err = th.AtomicSerialized(func(tx tm.Txn) error {
						serial.Add(1)
						defer serial.Add(-1)
						for i := 0; i < 3; i++ {
							if k := inflight.Load(); k != 0 {
								t.Errorf("goroutine %d: serialized body overlaps %d revocable bodies", id, k)
							}
							tx.Store(word, tx.Load(word)+1)
							runtime.Gosched()
						}
						return nil
					})
				} else {
					err = th.Atomic(func(tx tm.Txn) error {
						if th.irrevocable {
							// Escalated by the retry budget: it must
							// run alone like any serialized body.
							if k := inflight.Load(); k != 0 {
								t.Errorf("goroutine %d: escalated body overlaps %d revocable bodies", id, k)
							}
						} else {
							inflight.Add(1)
							defer inflight.Add(-1)
							if s := serial.Load(); s != 0 {
								t.Errorf("goroutine %d: revocable body overlaps a serialized one", id)
							}
						}
						tx.Store(word, tx.Load(word)+1)
						runtime.Gosched()
						return nil
					})
				}
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", id, n, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var sum uint64
	for i := uint64(0); i < 4; i++ {
		sum += m.Load(words + i*mem.LineSize/2)
	}
	var calls uint64 // serialized calls: three increments instead of one
	for g := 0; g < goroutines; g++ {
		for n := 0; n < rounds; n++ {
			if n%7 == g%7 {
				calls++
			}
		}
	}
	if want := goroutines*rounds + 2*calls; sum != want {
		t.Fatalf("counters sum to %d, want %d", sum, want)
	}
	if n := sys.Telemetry().Count(telemetry.IrrevocableEntries); n < calls {
		t.Fatalf("%d irrevocable entries, want at least the %d serialized calls", n, calls)
	}
}

// Retry waiters and writers together with a wake deadline long enough
// that no healthy run ever reaches it: every wakeup must arrive through
// a commit notification, so a lost one shows as a wakeup timeout rather
// than being papered over by the deadline's re-check.
func TestNoLostWakeups(t *testing.T) {
	const (
		pairs  = 3
		rounds = 200
	)
	m := mem.New()
	slots := m.Alloc(pairs*mem.LineSize, mem.LineSize)
	sys := New(m, Config{
		Threads:  2 * pairs,
		Watchdog: Watchdog{WakeDeadline: 20 * time.Second},
	})
	var wg sync.WaitGroup
	errs := make([]error, 2*pairs)
	for g := 0; g < pairs; g++ {
		slot := slots + uint64(g)*mem.LineSize
		wg.Add(2)
		go func(id int) { // producer
			defer wg.Done()
			th := sys.Thread(id)
			for i := 0; i < rounds && errs[id] == nil; i++ {
				errs[id] = th.Atomic(func(tx tm.Txn) error {
					tx.Store(slot, tx.Load(slot)+1)
					return nil
				})
				if i%8 == 0 {
					runtime.Gosched() // let the consumer drain and wait
				}
			}
		}(g)
		go func(id int) { // consumer
			defer wg.Done()
			th := sys.Thread(id)
			for i := 0; i < rounds && errs[id] == nil; i++ {
				errs[id] = th.Atomic(func(tx tm.Txn) error {
					v := tx.Load(slot)
					if v == 0 {
						tx.Retry()
					}
					tx.Store(slot, v-1)
					return nil
				})
			}
		}(pairs + g)
	}
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(2 * time.Minute):
		t.Fatal("a retry waiter never woke")
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", id, err)
		}
	}
	if n := sys.Telemetry().Count(telemetry.WakeupTimeouts); n != 0 {
		t.Fatalf("%d wakeup timeouts: a commit notification was lost", n)
	}
	var retries uint64
	for i := range sys.stats.Cores {
		retries += sys.stats.Cores[i].Retries
	}
	t.Logf("%d retry waits", retries)
}

// Neither a read-only transaction nor a writer whose body is bound once
// allocates, armed ladder or not.
func TestAtomicAllocatesNothing(t *testing.T) {
	for _, budget := range []int{0, 8} {
		sys, _, words := newSys(t, 1, tm.Config{Progress: tm.Progress{RetryBudget: budget}})
		th := sys.Thread(0)
		read := func(tx tm.Txn) error {
			for i := uint64(0); i < 8; i++ {
				tx.Load(words + i*mem.WordSize)
			}
			return nil
		}
		write := func(tx tm.Txn) error {
			tx.Store(words, tx.Load(words)+1)
			tx.Store(words+mem.LineSize, tx.Load(words+mem.LineSize)+1)
			return nil
		}
		for _, c := range []struct {
			name string
			body func(tm.Txn) error
		}{{"read-only", read}, {"writer", write}} {
			allocs := testing.AllocsPerRun(1000, func() {
				if err := th.Atomic(c.body); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("budget %d, %s: %.2f allocations per transaction, want 0", budget, c.name, allocs)
			}
		}
	}
}

// Thread on a fresh System is a plain lookup: workers fetching their
// handles while the watchdog already scans the handle table must not
// race (go test -race).
func TestThreadLookupRacesNothingWithWatchdog(t *testing.T) {
	const goroutines = 4
	m := mem.New()
	slot := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{
		TM:       tm.Config{Progress: tm.Progress{RetryBudget: 4}},
		Threads:  goroutines,
		Watchdog: Watchdog{Poll: 100 * time.Microsecond},
	})
	sys.StartWatchdog()
	defer sys.StopWatchdog()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			for i := 0; i < 100; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					tx.Store(slot, tx.Load(slot)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.Load(slot); got != goroutines*100 {
		t.Fatalf("counter = %d, want %d", got, goroutines*100)
	}
	if err := sys.CheckHealth(); err != nil {
		t.Fatal(err)
	}
}
