package native

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/tm"
)

// waitForViolation polls CheckHealth until the watchdog trips or the
// deadline passes.
func waitForViolation(t *testing.T, sys *System, within time.Duration) *NativeProgressViolation {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if err := sys.CheckHealth(); err != nil {
			var v *NativeProgressViolation
			if !errors.As(err, &v) {
				t.Fatalf("CheckHealth returned %T, want *NativeProgressViolation", err)
			}
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("watchdog never tripped")
	return nil
}

// A deliberately wedged stripe-lock holder must trip the stuck-stripe
// detector with the correct stripe index and holder id, and subsequent
// transactions must unwind with the violation as their error instead of
// spinning forever on the dead lock.
func TestStuckStripeLockWatchdog(t *testing.T) {
	m := mem.New()
	addr := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{
		Threads: 2,
		Watchdog: Watchdog{
			StripeHeldFor: 80 * time.Millisecond,
			Poll:          10 * time.Millisecond,
			CommitWindow:  time.Hour, // isolate the stripe detector
		},
	})
	th := sys.Thread(0)

	// Wedge the stripe exactly as a stalled holder would leave it: lock
	// word owned by goroutine slot 1, never released.
	ix := sys.stripeIndex(addr)
	sys.stripes[ix].v.Store(uint64(1)<<1 | 1)
	sys.StartWatchdog()
	defer sys.StopWatchdog()

	v := waitForViolation(t, sys, 5*time.Second)
	if v.Kind != "stuck-stripe-lock" {
		t.Fatalf("violation kind %q, want stuck-stripe-lock", v.Kind)
	}
	if v.Stripe != ix {
		t.Fatalf("violation stripe %d, want %d", v.Stripe, ix)
	}
	if v.Holder != 1 {
		t.Fatalf("violation holder %d, want 1", v.Holder)
	}
	if v.Held < 80*time.Millisecond {
		t.Fatalf("held %v shorter than the budget", v.Held)
	}

	// The failed flag must unwind transactions — including ones that would
	// spin on the dead stripe — with the structured violation, no hang.
	errCh := make(chan error, 1)
	go func() {
		errCh <- th.Atomic(func(tx tm.Txn) error {
			tx.Store(addr, 1)
			return nil
		})
	}()
	select {
	case err := <-errCh:
		var got *NativeProgressViolation
		if !errors.As(err, &got) {
			t.Fatalf("Atomic after trip returned %v, want the violation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Atomic hung after the watchdog tripped")
	}
}

// A thread wedged mid-transaction while the commit sequence sits still
// must trip the commit-stall detector naming that thread.
func TestCommitStallWatchdog(t *testing.T) {
	m := mem.New()
	sys := New(m, Config{
		Threads: 2,
		Watchdog: Watchdog{
			CommitWindow:  80 * time.Millisecond,
			Poll:          10 * time.Millisecond,
			StripeHeldFor: time.Hour, // isolate the commit-window detector
		},
	})
	wedged := sys.Thread(0).(*Thread)
	wedged.opSeq.Store(1) // odd: mid-transaction, and it will never advance
	sys.StartWatchdog()
	defer sys.StopWatchdog()

	v := waitForViolation(t, sys, 5*time.Second)
	if v.Kind != "commit-stall" {
		t.Fatalf("violation kind %q, want commit-stall", v.Kind)
	}
	if v.Holder != 0 {
		t.Fatalf("violation holder %d, want 0", v.Holder)
	}
	if v.Stripe != -1 {
		t.Fatalf("commit-stall stripe %d, want -1", v.Stripe)
	}
}

// A healthy contended run under aggressive watchdog settings must never
// trip: commits keep the window moving and stripes turn over in
// microseconds.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	const goroutines = 8
	m := mem.New()
	slot := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{
		Threads: goroutines,
		Watchdog: Watchdog{
			CommitWindow:  500 * time.Millisecond,
			StripeHeldFor: 200 * time.Millisecond,
			Poll:          10 * time.Millisecond,
		},
	})
	for g := 0; g < goroutines; g++ {
		sys.Thread(g)
	}
	sys.StartWatchdog()
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			for i := 0; i < 400; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					tx.Store(slot, tx.Load(slot)+1)
					return nil
				}); err != nil {
					errs[id] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	sys.StopWatchdog()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", id, err)
		}
	}
	if err := sys.CheckHealth(); err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
	if got := m.Load(slot); got != 400*goroutines {
		t.Fatalf("slot = %d, want %d", got, 400*goroutines)
	}
}

// Threads beyond GOMAXPROCS must still make progress: the spin loops yield
// to the scheduler (and periodically sleep), so a descheduled stripe
// holder cannot starve the goroutines that are runnable.
func TestOversubscribedThreadsComplete(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)

	const goroutines = 8 // 4× oversubscribed
	m := mem.New()
	slot := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{Threads: goroutines})
	for g := 0; g < goroutines; g++ {
		sys.Thread(g)
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := sys.Thread(id)
			for i := 0; i < 300; i++ {
				if err := th.Atomic(func(tx tm.Txn) error {
					tx.Store(slot, tx.Load(slot)+1)
					return nil
				}); err != nil {
					errs[id] = err
					return
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("oversubscribed run hung: spin loops starved the scheduler")
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", id, err)
		}
	}
	if got := m.Load(slot); got != 300*goroutines {
		t.Fatalf("slot = %d, want %d", got, 300*goroutines)
	}
}
