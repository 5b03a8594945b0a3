package native

import (
	"errors"
	"fmt"
)

// ErrArenaExhausted is the named arena-exhaustion error: allocation
// pressure is a per-cell workload-sizing problem, so it surfaces through
// Atomic as an error (and through the harness as a cell error, exit 1),
// never as a process panic. Match with errors.Is.
var ErrArenaExhausted = errors.New("native: arena exhausted; raise Config.ArenaBytes")

// arenaExhausted is the internal panic value alloc raises; Atomic's
// containment converts it into an ErrArenaExhausted-wrapping error.
type arenaExhausted struct {
	need  uint64 // bytes the failing allocation asked for
	arena uint64 // configured arena size
}

// stopSignal is panicked by spin loops and retry waiters when the
// watchdog has tripped: it unwinds the transaction so Atomic can return
// the published NativeProgressViolation instead of spinning forever.
type stopSignal struct{}

// TxnFault is a foreign panic contained inside an atomic block — the
// native analogue of the simulator's CoreFault. Containment runs before
// the fault surfaces: owned stripe locks are restored to their pre-lock
// versions, an irrevocable transaction's undo log is replayed and the
// serial section left, and the thread's mode flags are reset, so the
// system stays usable and the fault is a per-transaction error, not a
// process poison.
type TxnFault struct {
	Thread      int    // goroutine slot the fault occurred on
	Irrevocable bool   // whether the body was running in the serial section
	Value       string // rendered panic value
	Stack       string // stack at the recovery point
}

func (f *TxnFault) Error() string {
	mode := "revocable"
	if f.Irrevocable {
		mode = "irrevocable"
	}
	return fmt.Sprintf("native: TxnFault on goroutine %d (%s): panic: %s", f.Thread, mode, f.Value)
}
