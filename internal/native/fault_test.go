package native

import (
	"errors"
	"strings"
	"testing"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// Arena exhaustion must surface as a named, wrapped error from Atomic —
// never a process panic — and leave the thread usable for transactions
// that do not allocate.
func TestArenaExhaustedIsError(t *testing.T) {
	m := mem.New()
	slot := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{Threads: 1, ArenaBytes: 256})
	th := sys.Thread(0)

	err := th.Atomic(func(tx tm.Txn) error {
		tx.Alloc(1<<16, mem.WordSize)
		return nil
	})
	if !errors.Is(err, ErrArenaExhausted) {
		t.Fatalf("oversized alloc returned %v, want ErrArenaExhausted", err)
	}
	if !strings.Contains(err.Error(), "65536") {
		t.Fatalf("error %q does not name the allocation size", err)
	}
	// The thread survives: a non-allocating transaction commits.
	if err := th.Atomic(func(tx tm.Txn) error { tx.Store(slot, 9); return nil }); err != nil {
		t.Fatalf("transaction after arena exhaustion: %v", err)
	}
	if got := m.Load(slot); got != 9 {
		t.Fatalf("slot = %d, want 9", got)
	}
}

// A foreign panic in a revocable transaction body must be contained as a
// structured TxnFault carrying the panic value and a stack, counted in
// telemetry, with the system left fully operational.
func TestTxnFaultContainsBodyPanic(t *testing.T) {
	m := mem.New()
	slot := m.Alloc(mem.WordSize, mem.LineSize)
	sys := New(m, Config{Threads: 2})
	th := sys.Thread(0)
	other := sys.Thread(1)

	err := th.Atomic(func(tx tm.Txn) error {
		tx.Store(slot, 123) // buffered; must never become visible
		panic("boom")
	})
	var fault *TxnFault
	if !errors.As(err, &fault) {
		t.Fatalf("panicking body returned %v, want *TxnFault", err)
	}
	if fault.Irrevocable {
		t.Fatal("revocable fault marked irrevocable")
	}
	if fault.Thread != 0 || !strings.Contains(fault.Value, "boom") || fault.Stack == "" {
		t.Fatalf("fault fields wrong: %+v", fault)
	}
	if got := m.Load(slot); got != 0 {
		t.Fatalf("buffered store of a faulted transaction leaked: slot = %d", got)
	}
	if n := sys.Telemetry().Count(telemetry.ContainedFaults); n != 1 {
		t.Fatalf("contained_faults = %d, want 1", n)
	}
	// Both threads still commit.
	for _, h := range []tm.Thread{th, other} {
		if err := h.Atomic(func(tx tm.Txn) error { tx.Store(slot, tx.Load(slot)+1); return nil }); err != nil {
			t.Fatalf("transaction after contained fault: %v", err)
		}
	}
	if got := m.Load(slot); got != 2 {
		t.Fatalf("slot = %d, want 2", got)
	}
}

// A foreign panic inside the serial irrevocable section is the worst
// case: eager stores are already in memory and every other transaction is
// held out. Containment must replay the undo log, leave the serial section
// and report an irrevocable TxnFault — other threads must not deadlock.
func TestTxnFaultContainsIrrevocablePanic(t *testing.T) {
	m := mem.New()
	slot := m.Alloc(mem.WordSize, mem.LineSize)
	m.Store(slot, 7)
	sys := New(m, Config{
		TM:      tm.Config{Progress: tm.Progress{RetryBudget: 1}},
		Threads: 2,
	})
	th := sys.Thread(0).(*Thread)
	other := sys.Thread(1)

	// AtomicSerialized takes the serial irrevocable path on its first
	// attempt (the ladder is armed), so the body runs holding the serial
	// lock with eager stores under the undo log.
	err := th.AtomicSerialized(func(tx tm.Txn) error {
		if !th.irrevocable {
			t.Error("serialized attempt did not escalate")
		}
		tx.Store(slot, 999) // eager store under the undo log
		panic("boom")
	})
	var fault *TxnFault
	if !errors.As(err, &fault) {
		t.Fatalf("irrevocable panic returned %v, want *TxnFault", err)
	}
	if !fault.Irrevocable {
		t.Fatal("fault not marked irrevocable")
	}
	if got := m.Load(slot); got != 7 {
		t.Fatalf("undo log not replayed: slot = %d, want 7", got)
	}
	// The serial section must be open: a transaction on the other thread —
	// including one that escalates itself — completes.
	if err := other.Atomic(func(tx tm.Txn) error { tx.Store(slot, tx.Load(slot)+1); return nil }); err != nil {
		t.Fatalf("transaction after irrevocable fault: %v", err)
	}
	if got := m.Load(slot); got != 8 {
		t.Fatalf("slot = %d, want 8", got)
	}
}
