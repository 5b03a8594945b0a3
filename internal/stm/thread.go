package stm

import (
	"fmt"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stats"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// Descriptor layout (simulated memory). The descriptor address is always
// word-aligned, hence even, which is what distinguishes an owner pointer
// from an odd version number in a transaction record.
const (
	descRdLog   = 0  // read-set log pointer
	descWrLog   = 8  // write-set (eager) or write-buffer (deferred) log pointer
	descUndoLog = 16 // undo log pointer (eager)
	descMode    = 24 // mode word (aggressive flag, used by HASTM)
	descSize    = 64 // one cache line, avoids false sharing
)

// logCap is the capacity of each per-thread log in entries. Each entry is
// two words (16 bytes).
const logCap = 1 << 15

const entryBytes = 16

// RecEntry is one read- or write-set entry: a transaction-record address
// and the version it held when logged.
type RecEntry struct {
	Rec uint64
	Ver uint64
}

// The control-flow signals thrown through the user body with panic and
// the attempt/strike/escalation bookkeeping are the backend-neutral state
// machine shared with the host-native backend: tm.AbortSignal /
// tm.RetrySignal / tm.UserAbortSignal and tm.AttemptFSM.

// Thread is one core's software-transactional thread. It implements both
// tm.Thread and tm.Txn. The engine owns the attempt loop, the escalation
// ladder, nesting, retry/orElse, the read log and its validation; where
// writes live until commit is the versioning policy's business.
type Thread struct {
	sys *System
	ctx *sim.Ctx
	pol policy

	desc  uint64 // descriptor in simulated memory
	tls   uint64 // simulated TLS slot holding the descriptor pointer
	rdLog uint64 // log array base addresses in simulated memory
	wrLog uint64

	// Go-side mirror of the simulated read log (identical contents; the
	// simulated stores charge the real cache/cycle costs).
	reads []RecEntry
	watch []RecEntry // retry wait-set accumulated across rollbacks

	backoff            *tm.Backoff
	readsSinceValidate int
	txnSeq             uint64 // per-thread transaction id, stable across retries
	inTxn              bool

	// fsm is the shared attempt/strike/escalation state machine: aborted
	// attempts strike towards the retry budget, retry-waits do not, and at
	// the budget the thread acquires the irrevocable token so the next
	// attempt runs serially with no abort path. ladder is a dedicated
	// backoff for token waits so they never perturb the contention
	// backoff's state.
	fsm         tm.AttemptFSM
	ladder      *tm.Backoff
	irrevocable bool
	irrevStart  uint64 // clock at token acquisition, for cycles-held accounting

	// serializeNext makes the next top-level Atomic force-escalate on its
	// first attempt (admission control routing a hot-key transaction
	// straight through the irrevocable ladder). Consumed by Atomic.
	serializeNext bool

	// writerPinned is set when a policy restarted the current top-level
	// transaction with writerRestart; its remaining attempts skip the
	// optimistic read-only mode, bounding restarts to one per transaction.
	writerPinned bool
}

var (
	_ tm.Thread = (*Thread)(nil)
	_ tm.Txn    = (*Thread)(nil)
)

// savepoint marks the log sizes at a nested transaction's entry: the read
// log, the policy's write log (write set or write buffer) and undo log, and
// whether a read had been served from the version history.
type savepoint struct {
	reads, writes, undo int
	histServed          bool
}

// writerRestart is thrown through the body by a policy whose optimistic
// read-only attempt cannot become a writer: the attempt restarts pinned to
// writer mode. Like tm.RetrySignal it unwinds the body without being an
// abort.
type writerRestart struct{}

// policy is a versioning scheme: where an attempt's stores live until
// commit, and how its reads are proven consistent. Each hook charges its
// own simulated work; the engine never asks which policy it runs.
type policy interface {
	// begin resets the attempt's write state and stores the policy's own
	// descriptor fields (inside the Commit category).
	begin()
	// load is the read barrier. rec is the covering transaction record;
	// viaTable says it came from the global table (line granularity), so
	// the barrier charges the record-address computation.
	load(rec, addr uint64, viaTable bool) uint64
	// store is the write barrier; the engine has charged the address
	// computation for table records.
	store(rec, addr, val uint64)
	// commit validates and publishes the attempt, returning the commit
	// trace detail. It leaves the Commit category set.
	commit() (ok bool, cause stats.AbortCause, detail string)
	// validate checks the read set (periodically, or at commit).
	validate(atCommit bool) (bool, stats.AbortCause)
	savepoint() savepoint
	// rollbackTo reverts the write state to a nested savepoint; discard
	// drops all of it after a failed top-level attempt.
	rollbackTo(sp savepoint)
	discard()
	// end runs after commit or a terminal abort of an attempt.
	end(committed bool)
	// consistent re-checks the read set at zero simulated cost, to tell a
	// zombie's foreign panic from a real one.
	consistent() bool
	// footprint returns the write and undo log sizes, and the gauge that
	// tracks the write log's high-water mark.
	footprint() (writes, undo int, gauge telemetry.Gauge)
	// historyServed reports that a read was served from a version history:
	// a watched location has already changed, so Retry must not wait.
	historyServed() bool
	// onAbort runs when a conflict aborts the attempt.
	onAbort()
	// logs exposes the write set and undo log to GCPause; ok is false for
	// a policy without them.
	logs() (writes []RecEntry, undo []UndoEntry, ok bool)
}

// singleVersion is the policy default for schemes without a version
// history.
type singleVersion struct{}

func (singleVersion) historyServed() bool { return false }
func (singleVersion) onAbort()            {}

// Ctx returns the core context this thread runs on.
func (t *Thread) Ctx() *sim.Ctx { return t.ctx }

// ID returns the core id (the backend-neutral thread index).
func (t *Thread) ID() int { return t.ctx.ID() }

// Stamp returns the simulated clock, the serialization stamp of the most
// recently completed atomic block on the cycle-ordered simulator.
func (t *Thread) Stamp() uint64 { return t.ctx.Clock() }

// Stats returns the per-core statistics record.
func (t *Thread) Stats() *stats.Core {
	return &t.ctx.Machine().Stats.Cores[t.ctx.ID()]
}

// Config returns the TM configuration.
func (t *Thread) Config() tm.Config { return t.sys.cfg }

// Attempt returns the current attempt number (0 = first execution).
func (t *Thread) Attempt() int { return t.fsm.Attempt() }

// TxnSeq returns the per-thread id of the current (or most recent)
// top-level transaction; it stays stable across that transaction's retries.
func (t *Thread) TxnSeq() uint64 { return t.txnSeq }

// ModeAddr returns the simulated address of the descriptor's mode word,
// which the HASTM barriers test ("test [txndesc + mode], #aggressive").
func (t *Thread) ModeAddr() uint64 { return t.desc + descMode }

func (t *Thread) requireTxn() {
	if !t.inTxn {
		panic("stm: transactional access outside an atomic block")
	}
}

// --- Atomic engine ---------------------------------------------------------

// Atomic runs body as a transaction. At top level it retries conflict
// aborts until commit; inside a transaction it is a closed-nested
// transaction with partial rollback.
func (t *Thread) Atomic(body func(tm.Txn) error) error {
	if t.inTxn {
		return t.nestedAtomic(body)
	}
	t.fsm.BeginTxn()
	if t.serializeNext {
		t.serializeNext = false
		t.fsm.ForceEscalate()
	}
	t.watch = t.watch[:0]
	t.writerPinned = false
	t.txnSeq++
	for {
		t.enterLadder()
		t.begin()
		err, sig := t.runBody(body)
		switch s := sig.(type) {
		case nil:
			if err != nil {
				// Body failure: the trace needs a terminal event (a
				// dangling begin breaks per-transaction accounting), but
				// the failure is not an abort — no conflict occurred and
				// the abort counters must keep summing to the traced
				// abort events.
				t.ctx.TraceEvent("error", err.Error())
				t.abandonAttempt(telemetry.EvError, BodyErrorCause)
				return err
			}
			committed, cause := t.commitTxn()
			if committed {
				t.finish()
				return nil
			}
			t.afterAbort(cause)
		case tm.UserAbortSignal:
			t.abandonAttempt(telemetry.EvAbort, stats.AbortExplicit.String())
			t.Stats().Aborts[stats.AbortExplicit]++
			return tm.ErrUserAbort
		case tm.RetrySignal:
			t.ctx.TraceEvent("retry", fmt.Sprintf("watching %d records", len(t.watch)+len(t.reads)))
			// The wait set must capture the read set before the rollback
			// truncates it.
			t.watchReadsFrom(0)
			served := t.pol.historyServed()
			t.abandonAttempt(telemetry.EvRetry, "")
			t.Stats().Retries++
			if !served {
				// A history-served read means a watched location already
				// changed since the snapshot: waiting for a change that has
				// happened would deadlock, so such a retry takes the
				// (permitted) spurious wakeup instead.
				t.waitForChange()
			}
			t.fsm.OnRetryWait()
		case writerRestart:
			// The snapshot went stale before the attempt's first store: the
			// reads cannot carry over into writer mode, so the attempt
			// restarts pinned to the writer protocol. A strategy switch, not
			// a conflict loss — the attempt index advances but no strike is
			// charged and no abort is counted.
			t.ctx.TraceEvent("writer-restart", "snapshot stale at first store")
			t.abandonAttempt(telemetry.EvWriterRestart, "snapshot-stale")
			t.ctx.Telem().Inc(telemetry.MVCCWriterRestarts)
			t.writerPinned = true
			t.fsm.OnRetryWait()
		case tm.AbortSignal:
			t.afterAbort(s.Cause)
		}
	}
}

// AtomicSerialized runs body as a transaction that escalates to serial
// irrevocable mode on its first attempt: admission control's "serialize"
// action for transactions known to target a hot key. When the escalation
// ladder is not configured (Progress.Token nil) it degrades to a plain
// Atomic — the forced flag is never consulted. Inside a transaction it is
// an ordinary closed-nested block.
func (t *Thread) AtomicSerialized(body func(tm.Txn) error) error {
	if !t.inTxn {
		t.serializeNext = true
	}
	return t.Atomic(body)
}

// BodyErrorCause is the cause string carried by the EvError trace event a
// failed (error-returning) transaction body emits.
const BodyErrorCause = "body-error"

// finish closes out a transaction after commit.
func (t *Thread) finish() {
	t.pol.end(true)
	t.exitLadder()
	t.backoff.Reset()
	t.inTxn = false
}

// enterLadder runs before every top-level attempt when the escalation
// ladder is configured. Within the retry budget the attempt announces
// itself as revocable (and waits out any irrevocable owner); past the
// budget it escalates: acquire the global token, drain every other core's
// in-flight attempt, and run serially with no abort path. Token traffic is
// real simulated memory traffic, charged to the lock category, so the
// ladder's cost shows up honestly in figures.
func (t *Thread) enterLadder() {
	tok := t.sys.cfg.Progress.Token
	if tok == nil {
		return
	}
	ctx := t.ctx
	prev := ctx.SetCat(stats.Lock)
	if t.fsm.ShouldEscalate() {
		ctx.TraceEvent("escalate", "retry budget exhausted")
		ctx.EmitTxn(telemetry.TxnEvent{Txn: t.txnSeq, Retry: t.fsm.Attempt(),
			Kind: telemetry.EvEscalate, Cause: "retry-budget"})
		ctx.Telem().Inc(telemetry.Escalations)
		tok.Acquire(ctx, t.ladder)
		t.irrevocable = true
		t.irrevStart = ctx.Clock()
		ctx.Telem().Inc(telemetry.IrrevocableEntries)
	} else {
		tok.EnterShared(ctx, t.ladder)
	}
	ctx.SetCat(prev)
	t.ladder.Reset()
}

// exitLadder ends the attempt's participation in the ladder handshake:
// release the token (accounting the cycles it was held) after an
// irrevocable attempt, withdraw the active flag after a revocable one.
func (t *Thread) exitLadder() {
	tok := t.sys.cfg.Progress.Token
	if tok == nil {
		return
	}
	ctx := t.ctx
	prev := ctx.SetCat(stats.Lock)
	if t.irrevocable {
		ctx.Telem().Add(telemetry.IrrevocableCyclesHeld, ctx.Clock()-t.irrevStart)
		tok.Release(ctx)
		t.irrevocable = false
	} else {
		tok.ExitShared(ctx)
	}
	ctx.SetCat(prev)
}

// Irrevocable reports whether the current attempt holds the irrevocable
// token (for tests and fault hooks).
func (t *Thread) Irrevocable() bool { return t.irrevocable }

// footprint returns the attempt's write and undo log sizes and raises the
// log-pressure high-water marks to the current set sizes; called at
// transaction end points, where the sets have reached their peak for the
// attempt.
func (t *Thread) footprint() (writes, undo int) {
	writes, undo, gauge := t.pol.footprint()
	b := t.ctx.Telem()
	b.ObserveMax(telemetry.ReadSetHWM, uint64(len(t.reads)))
	b.ObserveMax(gauge, uint64(writes))
	b.ObserveMax(telemetry.UndoLogHWM, uint64(undo))
	return writes, undo
}

// abandonAttempt is the single exit path for every non-committing end of
// a top-level attempt: conflict abort, explicit abort, retry-wait, writer
// restart, body error. Centralising it keeps the paths from diverging
// again — every exit records the attempt's footprint in the set-size
// high-water marks and emits a terminal trace event carrying the full
// (reads, writes, undo) sizes, so begins always pair with terminals and
// the log-pressure gauges cannot silently skip retry or error attempts.
func (t *Thread) abandonAttempt(kind, cause string) {
	writes, undo := t.footprint()
	t.ctx.EmitTxn(telemetry.TxnEvent{Txn: t.txnSeq, Retry: t.fsm.Attempt(),
		Kind: kind, Cause: cause,
		Reads: len(t.reads), Writes: writes, Undo: undo})
	t.rollbackAll()
	t.pol.end(false)
	t.exitLadder()
	t.inTxn = false
}

// afterAbort rolls back and prepares the next attempt.
func (t *Thread) afterAbort(cause stats.AbortCause) {
	t.ctx.TraceEvent("abort", cause.String())
	t.pol.onAbort()
	t.abandonAttempt(telemetry.EvAbort, cause.String())
	t.Stats().Aborts[cause]++
	t.fsm.OnAbort()
	if cause.IsConflict() {
		t.backoff.Wait(t.ctx)
	}
}

// runBody executes the user body, converting engine panics into signals.
// A foreign panic is re-raised unless the read set no longer validates, in
// which case the body was a zombie executing on inconsistent data and the
// panic is converted into a conflict abort.
func (t *Thread) runBody(body func(tm.Txn) error) (err error, sig interface{}) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, restart := r.(writerRestart); restart || tm.IsEngineSignal(r) {
			sig = r
			return
		}
		if sim.IsStop(r) {
			// Watchdog stop-unwinding: must propagate to the grant
			// boundary, never be misread as a zombie abort.
			panic(r)
		}
		if !t.pol.consistent() {
			sig = tm.AbortSignal{Cause: stats.AbortValidation}
			return
		}
		panic(r)
	}()
	err = body(t)
	return err, nil
}

// readsMatch re-checks the read set directly against memory at zero
// simulated cost: every record must still hold its logged version, or be
// owned by this transaction having displaced exactly that version.
func (t *Thread) readsMatch(owned map[uint64]uint64) bool {
	m := t.ctx.Machine().Mem
	for _, e := range t.reads {
		cur := m.Load(e.Rec)
		if cur != e.Ver && !(cur == t.desc && owned[e.Rec] == e.Ver) {
			return false
		}
	}
	return true
}

func (t *Thread) begin() {
	t.inTxn = true
	t.reads = t.reads[:0]
	t.readsSinceValidate = 0

	ctx := t.ctx
	ctx.TraceEvent("begin", fmt.Sprintf("attempt=%d", t.fsm.Attempt()))
	ctx.EmitTxn(telemetry.TxnEvent{Txn: t.txnSeq, Retry: t.fsm.Attempt(), Kind: telemetry.EvBegin})
	// The inlined barriers keep the descriptor in a register (Fig 4), so
	// TLS is charged once per transaction, at begin.
	prev := ctx.SetCat(stats.TLS)
	ctx.Load(t.tls) // gettxndesc
	ctx.SetCat(stats.Commit)
	ctx.Exec(4) // descriptor setup
	ctx.Store(t.desc+descRdLog, t.rdLog)
	ctx.Store(t.desc+descWrLog, t.wrLog)
	t.pol.begin()
	ctx.SetCat(prev)

	if t.irrevocable {
		ctx.TraceEvent("irrevocable", "serial attempt, no abort path")
		ctx.EmitTxn(telemetry.TxnEvent{Txn: t.txnSeq, Retry: t.fsm.Attempt(), Kind: telemetry.EvIrrevocable})
		ctx.SetStatus("irrevocable", t.fsm.Attempt())
	} else {
		ctx.SetStatus(t.sys.status, t.fsm.Attempt())
	}
}

func (t *Thread) commitTxn() (bool, stats.AbortCause) {
	ctx := t.ctx
	prev := ctx.SetCat(stats.Commit)
	ok, cause, detail := t.pol.commit()
	if ok {
		ctx.Exec(8) // commit bookkeeping
		t.Stats().Commits++
		ctx.NoteCommit()
		ctx.TraceEvent("commit", detail)
		writes, undo := t.footprint()
		ctx.Telem().ObserveMax(telemetry.RetryDepthHWM, uint64(t.fsm.Attempt()))
		ctx.EmitTxn(telemetry.TxnEvent{Txn: t.txnSeq, Retry: t.fsm.Attempt(),
			Kind:  telemetry.EvCommit,
			Reads: len(t.reads), Writes: writes, Undo: undo})
	}
	ctx.SetCat(prev)
	return ok, cause
}

// validateReads is the full read-set validation: every logged record must
// still hold its logged version, or be owned by this transaction (owned
// maps record -> version at acquisition) having displaced exactly that
// version. traceFormat formats the read count for the trace.
func (t *Thread) validateReads(traceFormat string, owned map[uint64]uint64) (bool, stats.AbortCause) {
	t.Stats().FullValidations++
	t.ctx.TraceEvent("validate", fmt.Sprintf(traceFormat, len(t.reads)))
	ctx := t.ctx
	ctx.Exec(2) // loop setup
	for _, e := range t.reads {
		cur := ctx.Load(e.Rec)
		ctx.Exec(2) // compare + branch
		if cur == e.Ver {
			continue
		}
		if cur == t.desc {
			ctx.Exec(2)
			if owned[e.Rec] == e.Ver {
				continue // we own it and acquired it at the version we read
			}
		}
		return false, stats.AbortValidation
	}
	return true, 0
}

// periodicValidate bounds zombie execution: every ValidateEvery logged
// read barriers the read set is re-validated; a failure aborts
// immediately.
func (t *Thread) periodicValidate() {
	every := t.sys.cfg.ValidateEvery
	if every <= 0 {
		return
	}
	t.readsSinceValidate++
	if t.readsSinceValidate < every {
		return
	}
	t.readsSinceValidate = 0
	ctx := t.ctx
	prev := ctx.SetCat(stats.Validate)
	ok, cause := t.pol.validate(false)
	ctx.SetCat(prev)
	if !ok {
		panic(tm.AbortSignal{Cause: cause})
	}
}

// rollbackAll undoes every effect of the current attempt.
func (t *Thread) rollbackAll() {
	t.pol.discard()
	t.reads = t.reads[:0]
	ctx := t.ctx
	prev := ctx.SetCat(stats.Commit)
	ctx.Exec(8) // abort bookkeeping
	ctx.SetCat(prev)
}

// rollbackTo reverts the attempt to a nested savepoint.
func (t *Thread) rollbackTo(sp savepoint) {
	t.pol.rollbackTo(sp)
	t.reads = t.reads[:sp.reads]
}

// watchReadsFrom appends read-set entries at index >= n to the retry watch
// set.
func (t *Thread) watchReadsFrom(n int) {
	t.watch = append(t.watch, t.reads[n:]...)
}

// waitForChange blocks (in simulated time) until some watched record's
// version changes. An empty watch set, or a long wait, returns anyway — a
// spurious wakeup, which retry semantics permit.
func (t *Thread) waitForChange() {
	ctx := t.ctx
	prev := ctx.SetCat(stats.Validate)
	defer ctx.SetCat(prev)
	if len(t.watch) == 0 {
		t.backoff.Wait(ctx)
		return
	}
	for poll := 0; poll < 1000; poll++ {
		for _, e := range t.watch {
			cur := ctx.Load(e.Rec)
			ctx.Exec(2)
			if cur != e.Ver {
				return
			}
		}
		t.backoff.Wait(ctx)
	}
}

// --- Nesting, retry, orElse ------------------------------------------------

func (t *Thread) nestedAtomic(body func(tm.Txn) error) error {
	err, retry := t.runNested(body)
	if retry {
		panic(tm.RetrySignal{})
	}
	return err
}

// OrElse implements composable blocking (§2, [11]): alternatives run as
// nested transactions; one that calls Retry is rolled back and the next is
// tried; if all retry, the retry propagates with the union of their read
// sets as the wait set.
func (t *Thread) OrElse(alternatives ...func(tm.Txn) error) error {
	if !t.inTxn {
		return t.Atomic(func(tx tm.Txn) error { return tx.OrElse(alternatives...) })
	}
	for _, alt := range alternatives {
		if err, retry := t.runNested(alt); !retry {
			return err
		}
	}
	panic(tm.RetrySignal{})
}

// runNested runs body as a closed-nested transaction. A body error rolls
// back only the nested transaction's effects; a Retry rolls them back too
// and reports retry, keeping the nested reads in the watch set so the
// waiter observes them. Conflict and user aborts, and writer restarts,
// unwind the whole transaction.
func (t *Thread) runNested(body func(tm.Txn) error) (err error, retry bool) {
	sp := t.pol.savepoint()
	t.ctx.Exec(4) // nested begin
	err, sig := t.runBody(body)
	switch sig.(type) {
	case nil:
		if err != nil {
			t.rollbackTo(sp)
			return err, false
		}
		t.ctx.Exec(2) // nested commit merges into the parent
		return nil, false
	case tm.RetrySignal:
		t.watchReadsFrom(sp.reads)
		t.rollbackTo(sp)
		return nil, true
	default:
		panic(sig)
	}
}

// Exec charges application compute to the simulated clock (attributed to
// the App category, since the body runs at that category).
func (t *Thread) Exec(n uint64) { t.ctx.Exec(n) }

// Alloc reserves memory for a new object; aborts leak it (GC semantics).
func (t *Thread) Alloc(size, align uint64) uint64 { return t.ctx.Alloc(size, align) }

// StoreInit initialises not-yet-published memory without barriers.
func (t *Thread) StoreInit(addr, val uint64) { t.ctx.Store(addr, val) }

// Retry aborts the innermost alternative and blocks re-execution until a
// previously read location may have changed.
func (t *Thread) Retry() {
	t.requireTxn()
	if t.irrevocable {
		// An irrevocable attempt holds the global token and has drained
		// every other core: blocking it on a change nobody can make is a
		// guaranteed deadlock, and the ladder invariant (irrevocable is
		// terminal-commit-only) forbids the rollback. Fail loudly; the
		// simulator contains the panic as a CoreFault.
		panic("stm: Retry inside an irrevocable transaction")
	}
	panic(tm.RetrySignal{})
}

// Abort abandons the transaction; the enclosing Atomic returns
// tm.ErrUserAbort.
func (t *Thread) Abort() {
	t.requireTxn()
	if t.irrevocable {
		// Same invariant as Retry: irrevocable attempts have no abort path.
		panic("stm: Abort inside an irrevocable transaction")
	}
	panic(tm.UserAbortSignal{})
}

// AbortConflictForTest forces a conflict-style abort (used by failure
// injection in tests).
func (t *Thread) AbortConflictForTest() {
	t.requireTxn()
	panic(tm.AbortSignal{Cause: stats.AbortValidation})
}

// GCPause models §5's language-environment integration: the transaction is
// suspended, a collector or tool inspects (and may patch) its logs and even
// transactionally written objects, and the transaction resumes WITHOUT
// aborting. The hardware cost is a ring transition: all mark bits are
// discarded and the mark counter bumps, so the transaction merely falls
// back to full software validation at commit. Only the eager policy keeps
// the write set and undo log an inspector expects; GCPause panics on a
// deferred-update thread.
func (t *Thread) GCPause(inspect func(reads, writes []RecEntry, undo []UndoEntry)) {
	writes, undo, ok := t.pol.logs()
	if !ok {
		panic("stm: GCPause requires an eager-versioning thread (STM or HASTM)")
	}
	t.requireTxn()
	if inspect != nil {
		inspect(t.reads, writes, undo)
	}
	t.ctx.RingTransition()
}

// --- Barriers ---------------------------------------------------------------

// chargeAddrCompute charges the record-address computation
// (mov/and/add, Fig 7) to the given category.
func (t *Thread) chargeAddrCompute(cat stats.Category) {
	prev := t.ctx.SetCat(cat)
	t.ctx.Exec(3)
	t.ctx.SetCat(prev)
}

func (t *Thread) appLoad(addr uint64) uint64 {
	prev := t.ctx.SetCat(stats.App)
	v := t.ctx.Load(addr)
	t.ctx.SetCat(prev)
	return v
}

// Load transactionally reads the word at addr using the global record
// table (cache-line-granularity conflict detection).
func (t *Thread) Load(addr uint64) uint64 {
	t.requireTxn()
	return t.pol.load(t.sys.table.RecordFor(addr), addr, true)
}

// LoadObj transactionally reads the field at offset off of the object
// whose header record is at base. Under object granularity the header is
// the transaction record (managed-environment style); under line
// granularity it degenerates to a plain transactional load of base+off.
func (t *Thread) LoadObj(base, off uint64) uint64 {
	t.requireTxn()
	if t.sys.cfg.Granularity != tm.ObjectGranularity {
		return t.Load(base + off)
	}
	if off < 8 {
		panic(fmt.Sprintf("stm: LoadObj offset %d overlaps the header", off))
	}
	return t.pol.load(base, base+off, false)
}

// Store transactionally writes the word at addr (line-granularity record).
func (t *Thread) Store(addr, val uint64) {
	t.requireTxn()
	t.chargeAddrCompute(stats.WrBar)
	t.pol.store(t.sys.table.RecordFor(addr), addr, val)
}

// StoreObj transactionally writes a field of the object at base.
func (t *Thread) StoreObj(base, off, val uint64) {
	t.requireTxn()
	if t.sys.cfg.Granularity != tm.ObjectGranularity {
		t.Store(base+off, val)
		return
	}
	if off < 8 {
		panic(fmt.Sprintf("stm: StoreObj offset %d overlaps the header", off))
	}
	t.pol.store(base, base+off, val)
}

// logRead appends a record and the version it held to the read set.
func (t *Thread) logRead(rec, ver uint64) {
	if len(t.reads) >= logCap {
		panic("stm: read-set log overflow; raise logCap or shorten the transaction")
	}
	t.appendLog(descRdLog, rec, ver)
	t.reads = append(t.reads, RecEntry{rec, ver})
	t.Stats().ReadsLogged++
}

// appendLog appends one two-word entry to the simulated log whose cursor
// lives at descriptor offset slot.
func (t *Thread) appendLog(slot, a, b uint64) {
	ctx := t.ctx
	logPtr := ctx.Load(t.desc + slot)
	ctx.Exec(3) // overflow test, branch, pointer add
	ctx.Store(t.desc+slot, logPtr+entryBytes)
	ctx.Store(logPtr, a)
	ctx.Store(logPtr+8, b)
}

// waitShared is the contention policy's bounded wait for a foreign-owned
// record: it returns the record's version once it is shared again, or
// false when the policy's bound runs out.
func (t *Thread) waitShared(rec uint64) (uint64, bool) {
	var limit int
	switch t.sys.cfg.Policy {
	case tm.AbortSelf:
		limit = 0
	case tm.PoliteBackoff:
		limit = 16
	case tm.Wait:
		// Even "wait" must bound spinning in simulation: two waiters can
		// own records the other needs. A long bound keeps the spirit.
		limit = 256
	}
	ctx := t.ctx
	wait := tm.NewBackoff(ctx.ID())
	for spin := 0; spin < limit; spin++ {
		wait.Wait(ctx)
		v := ctx.Load(rec)
		ctx.Exec(2)
		if IsVersion(v) {
			return v, true
		}
	}
	return 0, false
}

// handleContention resolves an ownership conflict met by a barrier,
// returning the record's version once it is shared again, or aborting the
// transaction (by panic).
func (t *Thread) handleContention(rec uint64) uint64 {
	if v, ok := t.waitShared(rec); ok {
		return v
	}
	panic(tm.AbortSignal{Cause: stats.AbortLockConflict})
}
