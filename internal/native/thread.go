package native

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stats"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// readEntry is one validated read: the stripe it hit and the (even)
// version observed. Doubles as a retry watch-set entry.
type readEntry struct {
	ix  int
	ver uint64
}

// writeEntry is one buffered store. prev chains to the previous entry for
// the same address (or -1), so rolling a nested transaction back can
// restore the write-buffer index exactly.
type writeEntry struct {
	addr uint64
	val  uint64
	prev int
}

// undoEntry is one eager store by an irrevocable transaction.
type undoEntry struct {
	addr uint64
	old  uint64
}

// Thread is a host goroutine's transaction handle. It implements both
// tm.Thread and tm.Txn; one handle must never be shared by two goroutines
// at the same time.
type Thread struct {
	// active is the thread's escalation-ladder slot, 1 while a revocable
	// attempt runs (invariant 5); commits counts the thread's commits for
	// the watchdog. Only this thread writes them, and the padding keeps
	// the escalator's and the watchdog's reads from sharing a line with
	// another thread's writes.
	_       cacheLinePad
	active  atomic.Uint32
	commits atomic.Uint64
	_       cacheLinePad

	sys      *System
	id       int
	lockWord uint64 // id<<1 | 1: this thread's stripe write-lock value
	st       *stats.Core
	tb       *telemetry.Block
	fsm      tm.AttemptFSM

	inTxn       bool
	irrevocable bool
	rv          uint64 // read version: clock sample at attempt begin
	lastStamp   uint64 // serialization stamp of the last committed block

	reads  []readEntry
	writes []writeEntry
	windex map[uint64]int // addr -> newest writes entry
	saves  []tm.Savepoint
	watch  []readEntry // retry wait set, accumulated across alternatives

	// Commit-time scratch, reused across commits.
	owned      map[int]uint64 // acquired stripe -> pre-lock version
	stripeIdxs []int

	// Irrevocable mode writes eagerly; undo supports nested rollback and
	// the body-error path, touched collects stripes to bump at commit.
	undo    []undoEntry
	touched []int

	// serializeNext makes the next top-level Atomic force-escalate on its
	// first attempt (admission control routing a hot-key transaction
	// straight onto the serial path). Consumed by Atomic; inert when the
	// ladder is not armed.
	serializeNext bool

	// opSeq is odd while the thread is inside a top-level Atomic; the
	// watchdog reads it to tell a stuck transaction from an idle thread.
	opSeq atomic.Uint64
	// boRng seeds hostBackoff's jitter; chaos is the thread's fault
	// stream (nil when the plane is disabled).
	boRng uint64
	chaos *chaosThread
}

var (
	_ tm.Thread = (*Thread)(nil)
	_ tm.Txn    = (*Thread)(nil)
)

// ID returns the goroutine slot this handle was created for.
func (t *Thread) ID() int { return t.id }

// Stamp returns the serialization stamp of the most recently completed
// atomic block: its TL2 write version, or its read version if it wrote
// nothing (a read-only transaction serializes at its snapshot).
func (t *Thread) Stamp() uint64 { return t.lastStamp }

// Ctx returns nil: there is no simulated core underneath a native thread.
func (t *Thread) Ctx() *sim.Ctx { return nil }

func (t *Thread) requireTxn() {
	if !t.inTxn {
		panic("native: transactional operation outside an atomic block")
	}
}

// spinLimit bounds how long a read or a commit-time acquire waits on a
// locked stripe before aborting, per the contention policy.
func (t *Thread) spinLimit() int {
	switch t.sys.cfg.TM.Policy {
	case tm.AbortSelf:
		return 0
	case tm.Wait:
		// Commit sections are short and stripes are acquired in sorted
		// order (no cycles), so a long bound keeps "wait" honest without
		// risking livelock-forever under a stalled OS thread.
		return 1 << 20
	default: // tm.PoliteBackoff
		return 128
	}
}

// backoffCapShift caps hostBackoff's exponential window at
// 1µs << 6 = 64µs: long enough to drain any commit section, short enough
// that a transiently unlucky thread recovers quickly.
const backoffCapShift = 6

// hostBackoff yields between failed attempts; real time replaces the
// simulator's charged backoff cycles. Past the Gosched grace strikes the
// sleep is drawn uniformly from the upper half of a capped exponential
// window — the seeded per-thread jitter keeps two threads that aborted on
// the same stripe from re-colliding in lockstep, the same reason
// tm.Backoff jitters the simulated schemes.
func (t *Thread) hostBackoff() {
	n := t.fsm.Strikes()
	if n < 4 {
		runtime.Gosched()
		return
	}
	shift := n - 4
	if shift > backoffCapShift {
		shift = backoffCapShift
	}
	window := uint64(time.Microsecond) << shift
	time.Sleep(time.Duration(window/2 + t.backoffRand()%(window/2+1)))
}

// backoffRand steps the thread's xorshift64 jitter stream.
func (t *Thread) backoffRand() uint64 {
	x := t.boRng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.boRng = x
	return x
}

// spinYield cooperates with the scheduler while spinning on a locked
// stripe: Gosched on most iterations, a real timed sleep periodically so
// a descheduled holder gets CPU even when every P is busy spinning
// (Threads > GOMAXPROCS), and a watchdog check so a permanently stuck
// holder unwinds the spinner instead of pinning it forever.
func (t *Thread) spinYield(spins int) {
	if spins&(1<<10-1) == 0 && t.sys.failed.Load() != nil {
		panic(stopSignal{})
	}
	if spins&(1<<12-1) == 0 {
		time.Sleep(time.Microsecond)
		return
	}
	runtime.Gosched()
}

// --- Atomic: the attempt loop ----------------------------------------------

// Atomic runs body as a transaction, re-executing on conflict aborts and
// escalating to serial irrevocable mode once the retry budget is spent.
//
// Foreign panics do not escape: contain restores any stripe locks and the
// serial section the transaction held, resets the thread, and returns the
// panic as a *TxnFault error (arena exhaustion as ErrArenaExhausted, a
// watchdog trip as the NativeProgressViolation), matching the simulator's
// PR 5 containment rule.
func (t *Thread) Atomic(body func(tm.Txn) error) (err error) {
	if t.inTxn {
		return t.nestedAtomic(body)
	}
	t.opSeq.Add(1)
	defer t.opSeq.Add(1)
	defer t.contain(&err)
	if t.chaos != nil {
		t.chaos.beginTxn()
	}
	t.fsm.BeginTxn()
	if t.serializeNext {
		t.serializeNext = false
		t.fsm.ForceEscalate()
	}
	t.watch = t.watch[:0]
	for {
		if t.sys.failed.Load() != nil {
			panic(stopSignal{})
		}
		if t.sys.armed && t.fsm.ShouldEscalate() {
			return t.runIrrevocable(body)
		}
		done, retryWait, result := t.attemptOnce(body)
		if done {
			return result
		}
		if retryWait {
			t.st.Retries++
			t.fsm.OnRetryWait()
			t.chaosAt(pointWait)
			t.sys.waitForChange(t, t.watch)
		} else {
			t.hostBackoff()
		}
	}
}

// chaosAt fires the thread's pending injections for point p, if any;
// reports whether a spurious abort was injected.
func (t *Thread) chaosAt(p chaosPoint) bool {
	if t.chaos == nil {
		return false
	}
	fired, abort := t.chaos.at(p)
	for i := 0; i < fired; i++ {
		t.tb.Inc(telemetry.ChaosInjected)
	}
	return abort
}

// contain is Atomic's recovery rail: it intercepts everything except
// engine signals (which never escape the attempt machinery — one here is
// an engine bug and re-panics), repairs shared state — stripe locks back
// to pre-lock versions, the irrevocable undo log replayed and the serial
// section left — and converts the panic into the transaction's error.
func (t *Thread) contain(err *error) {
	r := recover()
	if r == nil {
		return
	}
	t.releaseOwnedIfHeld()
	wasIrrevocable := t.irrevocable
	if wasIrrevocable {
		for i := len(t.undo) - 1; i >= 0; i-- {
			t.sys.m.StoreAtomic(t.undo[i].addr, t.undo[i].old)
		}
		t.undo = t.undo[:0]
		t.sys.exitExclusive()
	}
	t.inTxn, t.irrevocable = false, false
	switch v := r.(type) {
	case stopSignal:
		if *err = t.sys.CheckHealth(); *err == nil {
			*err = &NativeProgressViolation{Kind: "commit-stall", Holder: t.id, Stripe: -1}
		}
	case arenaExhausted:
		*err = fmt.Errorf("%w (allocation of %d bytes, arena %d bytes)", ErrArenaExhausted, v.need, v.arena)
	default:
		if tm.IsEngineSignal(r) {
			panic(r)
		}
		t.tb.Inc(telemetry.ContainedFaults)
		*err = &TxnFault{
			Thread:      t.id,
			Irrevocable: wasIrrevocable,
			Value:       fmt.Sprint(r),
			Stack:       string(debug.Stack()),
		}
	}
}

// releaseOwnedIfHeld restores the pre-lock version of every stripe the
// thread still holds. After a completed commit or abort the stripes no
// longer carry the thread's lock word, so stale owned entries are inert.
func (t *Thread) releaseOwnedIfHeld() {
	for ix, old := range t.owned {
		sp := &t.sys.stripes[ix]
		if sp.v.Load() == t.lockWord {
			sp.v.Store(old)
		}
	}
}

// AtomicSerialized runs body as a transaction that takes the serial
// irrevocable path on its first attempt: admission control's "serialize"
// action for transactions known to target a hot key. When the ladder is
// not armed (retry budget 0) it degrades to a plain Atomic. Inside a
// transaction it is an ordinary closed-nested block.
func (t *Thread) AtomicSerialized(body func(tm.Txn) error) error {
	if !t.inTxn {
		t.serializeNext = true
	}
	return t.Atomic(body)
}

// attemptOnce runs one revocable attempt with the thread's ladder slot
// raised. It returns done=true with the transaction's result, or
// retryWait=true (the caller must block on the watch set — after the slot
// is cleared, or an escalated transaction could never drain us), or
// neither (a conflict abort: back off and re-attempt).
func (t *Thread) attemptOnce(body func(tm.Txn) error) (done, retryWait bool, result error) {
	if t.sys.armed {
		t.sys.enterRevocable(t)
		defer t.active.Store(0)
	}
	t.beginAttempt()
	err, sig := t.runBody(body)
	switch s := sig.(type) {
	case nil:
		if err != nil {
			t.endAttempt()
			return true, false, err
		}
		cause, ok := t.commit()
		if !ok {
			t.afterAbort(cause)
			return false, false, nil
		}
		t.endAttempt()
		return true, false, nil
	case tm.UserAbortSignal:
		t.st.Aborts[stats.AbortExplicit]++
		t.endAttempt()
		return true, false, tm.ErrUserAbort
	case tm.RetrySignal:
		// Union the attempt's reads into the wait set; earlier orElse
		// alternatives already parked theirs there.
		t.watch = append(t.watch, t.reads...)
		t.endAttempt()
		return false, true, nil
	case tm.AbortSignal:
		t.afterAbort(s.Cause)
		return false, false, nil
	default:
		panic(sig)
	}
}

// runBody executes body, converting engine signals into a return value and
// letting foreign panics escape.
func (t *Thread) runBody(body func(tm.Txn) error) (err error, sig interface{}) {
	defer func() {
		if r := recover(); r != nil {
			if tm.IsEngineSignal(r) {
				sig = r
				return
			}
			panic(r)
		}
	}()
	return body(t), nil
}

// beginAttempt samples the read version and clears the attempt's logs.
func (t *Thread) beginAttempt() {
	t.inTxn = true
	t.rv = t.sys.clock.Load()
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	t.saves = t.saves[:0]
	if len(t.windex) > 0 {
		clear(t.windex)
	}
	t.tb.Inc(telemetry.CautiousAttempts)
}

func (t *Thread) endAttempt() { t.inTxn = false }

func (t *Thread) afterAbort(cause stats.AbortCause) {
	t.st.Aborts[cause]++
	t.fsm.OnAbort()
	t.inTxn = false
}

// --- The TL2 data path ------------------------------------------------------

// Load transactionally reads the word at addr: own buffered write if any,
// else a version-stable read no newer than rv (invariant 2).
func (t *Thread) Load(addr uint64) uint64 {
	t.requireTxn()
	if t.irrevocable {
		return t.sys.m.LoadAtomic(addr)
	}
	if len(t.writes) > 0 {
		if i, ok := t.windex[addr]; ok {
			return t.writes[i].val
		}
	}
	ix := t.sys.stripeIndex(addr)
	sp := &t.sys.stripes[ix]
	spins := 0
	for {
		v1 := sp.v.Load()
		if v1&1 == 1 {
			// Write-locked by a committer (never by us: our writes are
			// buffered until commit). Wait per policy, then give up.
			spins++
			if spins > t.spinLimit() {
				panic(tm.AbortSignal{Cause: stats.AbortLockConflict})
			}
			t.spinYield(spins)
			continue
		}
		if v1 > t.rv {
			// The stripe committed past our snapshot: reading it would
			// tear the read set. TL2 aborts and re-runs with a fresh rv.
			panic(tm.AbortSignal{Cause: stats.AbortValidation})
		}
		val := t.sys.m.LoadAtomic(addr)
		if sp.v.Load() != v1 {
			continue // changed underneath the data load; re-sample
		}
		t.reads = append(t.reads, readEntry{ix: ix, ver: v1})
		t.st.ReadsLogged++
		t.st.UnfilteredReads++
		return val
	}
}

// Store buffers the write; it becomes visible only at commit.
func (t *Thread) Store(addr, val uint64) {
	t.requireTxn()
	if t.irrevocable {
		t.undo = append(t.undo, undoEntry{addr: addr, old: t.sys.m.LoadAtomic(addr)})
		t.touched = append(t.touched, t.sys.stripeIndex(addr))
		t.sys.m.StoreAtomic(addr, val)
		return
	}
	prev := -1
	if i, ok := t.windex[addr]; ok {
		prev = i
	}
	t.windex[addr] = len(t.writes)
	t.writes = append(t.writes, writeEntry{addr: addr, val: val, prev: prev})
}

// LoadObj reads field off of the object at base. Conflict detection is by
// stripe, so object and line granularity coincide on this backend.
func (t *Thread) LoadObj(base, off uint64) uint64 {
	if off < 8 {
		panic("native: LoadObj offset inside the header word")
	}
	return t.Load(base + off)
}

// StoreObj writes a field of the object at base.
func (t *Thread) StoreObj(base, off, val uint64) {
	if off < 8 {
		panic("native: StoreObj offset inside the header word")
	}
	t.Store(base+off, val)
}

// Exec is free on the native backend: host compute is real compute.
func (t *Thread) Exec(n uint64) {}

// Alloc reserves memory from the system's concurrency-safe arena. An
// aborted transaction merely leaks the allocation, as a GC would reclaim.
func (t *Thread) Alloc(size, align uint64) uint64 {
	t.requireTxn()
	return t.sys.alloc(size, align)
}

// StoreInit initialises freshly allocated, still-private memory without
// concurrency control. The store is atomic so a later transactional read
// of the published word is race-clean.
func (t *Thread) StoreInit(addr, val uint64) {
	t.requireTxn()
	t.sys.m.StoreAtomic(addr, val)
}

// --- Commit ----------------------------------------------------------------

// commit finishes a revocable attempt (invariant 3). Returns ok=false with
// the abort cause if the attempt must be re-run.
func (t *Thread) commit() (stats.AbortCause, bool) {
	t.tb.ObserveMax(telemetry.ReadSetHWM, uint64(len(t.reads)))
	t.tb.ObserveMax(telemetry.WriteSetHWM, uint64(len(t.writes)))
	t.tb.ObserveMax(telemetry.RetryDepthHWM, uint64(t.fsm.Attempt()))

	if len(t.writes) == 0 {
		// Read-only: every read was valid at <= rv when it happened
		// (invariant 2), so the snapshot is exactly the committed state
		// at rv and serializes there.
		t.lastStamp = t.rv
		t.st.Commits++
		t.commits.Add(1)
		return 0, true
	}

	// Acquire the write set's stripes in ascending index order.
	t.stripeIdxs = t.stripeIdxs[:0]
	for addr := range t.windex {
		t.stripeIdxs = append(t.stripeIdxs, t.sys.stripeIndex(addr))
	}
	sort.Ints(t.stripeIdxs)
	for k := range t.owned {
		delete(t.owned, k)
	}
	last := -1
	for _, ix := range t.stripeIdxs {
		if ix == last {
			continue // several addresses on one stripe
		}
		last = ix
		old, ok := t.acquireStripe(ix)
		if !ok {
			t.releaseOwned(0) // restore pre-lock versions
			return stats.AbortLockConflict, false
		}
		t.owned[ix] = old
	}

	// Chaos point: the full write set is locked, wv not yet taken — a
	// stall here is exactly a descheduled committer.
	if t.chaosAt(pointPostLock) {
		t.releaseOwned(0)
		return stats.AbortLockConflict, false
	}

	wv := t.sys.clock.Add(2)

	if t.chaosAt(pointPreValidate) {
		t.releaseOwned(0)
		return stats.AbortLockConflict, false
	}

	// Revalidate the read set unless nothing committed since our snapshot
	// (rv+2 == wv means we took the only clock tick).
	if t.rv+2 != wv {
		for _, re := range t.reads {
			cur := t.sys.stripes[re.ix].v.Load()
			if cur == re.ver {
				continue
			}
			if cur == t.lockWord {
				if old, mine := t.owned[re.ix]; mine && old == re.ver {
					continue // we locked it ourselves; it was unchanged
				}
			}
			t.releaseOwned(0)
			return stats.AbortValidation, false
		}
	}

	if t.chaosAt(pointPreWriteBack) {
		t.releaseOwned(0)
		return stats.AbortLockConflict, false
	}

	// Publish the newest buffered value of every address, then release the
	// stripes to wv: the new versions become visible only after the data.
	for addr, i := range t.windex {
		t.sys.m.StoreAtomic(addr, t.writes[i].val)
	}
	t.releaseOwned(wv)

	t.lastStamp = wv
	t.st.Commits++
	t.commits.Add(1)
	t.sys.notifyCommit()
	return 0, true
}

// acquireStripe write-locks one stripe, spinning per the contention
// policy. Returns the pre-lock version on success.
func (t *Thread) acquireStripe(ix int) (old uint64, ok bool) {
	sp := &t.sys.stripes[ix]
	limit := t.spinLimit()
	spins := 0
	for {
		v := sp.v.Load()
		if v&1 == 0 {
			if sp.v.CompareAndSwap(v, t.lockWord) {
				return v, true
			}
			continue // lost the CAS race; re-sample without waiting
		}
		spins++
		if spins > limit {
			return 0, false
		}
		t.spinYield(spins)
	}
}

// releaseOwned releases every acquired stripe: to wv after a successful
// publish, or back to its pre-lock version (wv == 0) on an aborted commit.
func (t *Thread) releaseOwned(wv uint64) {
	for ix, old := range t.owned {
		if wv != 0 {
			t.sys.stripes[ix].v.Store(wv)
		} else {
			t.sys.stripes[ix].v.Store(old)
		}
	}
}

// --- Nesting, retry, orElse -------------------------------------------------

func (t *Thread) nestedAtomic(body func(tm.Txn) error) error {
	sp := tm.Savepoint{Reads: len(t.reads), Writes: len(t.writes), Undo: len(t.undo)}
	t.saves = append(t.saves, sp)
	err, sig := t.runBody(body)
	t.saves = t.saves[:len(t.saves)-1]
	switch sig.(type) {
	case nil:
		if err != nil {
			// Partial rollback: only the nested transaction's effects.
			t.rollbackTo(sp)
			return err
		}
		return nil // nested commit merges into the parent
	case tm.RetrySignal:
		// Park the nested reads in the wait set before dropping them, so
		// the waiter observes everything the alternative read.
		t.watch = append(t.watch, t.reads[sp.Reads:]...)
		t.rollbackTo(sp)
		panic(tm.RetrySignal{})
	default:
		panic(sig) // conflict/user aborts unwind the whole transaction
	}
}

// OrElse implements composable blocking: alternatives run as nested
// transactions; one that calls Retry is rolled back and the next is tried;
// if all retry, the retry propagates with the union of their read sets as
// the wait set.
func (t *Thread) OrElse(alternatives ...func(tm.Txn) error) error {
	if !t.inTxn {
		return t.Atomic(func(tx tm.Txn) error { return tx.OrElse(alternatives...) })
	}
	for _, alt := range alternatives {
		sp := tm.Savepoint{Reads: len(t.reads), Writes: len(t.writes), Undo: len(t.undo)}
		t.saves = append(t.saves, sp)
		err, sig := t.runBody(alt)
		t.saves = t.saves[:len(t.saves)-1]
		switch sig.(type) {
		case nil:
			if err != nil {
				t.rollbackTo(sp)
				return err
			}
			return nil
		case tm.RetrySignal:
			t.watch = append(t.watch, t.reads[sp.Reads:]...)
			t.rollbackTo(sp)
			continue
		default:
			panic(sig)
		}
	}
	panic(tm.RetrySignal{})
}

// rollbackTo reverts the attempt's logs to a savepoint. Revocable
// transactions truncate the buffers and restore the write index via the
// prev chain; irrevocable transactions replay the undo log, newest first.
func (t *Thread) rollbackTo(sp tm.Savepoint) {
	if t.irrevocable {
		for i := len(t.undo) - 1; i >= sp.Undo; i-- {
			t.sys.m.StoreAtomic(t.undo[i].addr, t.undo[i].old)
		}
		t.undo = t.undo[:sp.Undo]
		return
	}
	for i := len(t.writes) - 1; i >= sp.Writes; i-- {
		w := t.writes[i]
		if w.prev >= 0 {
			t.windex[w.addr] = w.prev
		} else {
			delete(t.windex, w.addr)
		}
	}
	t.writes = t.writes[:sp.Writes]
	t.reads = t.reads[:sp.Reads]
}

// Retry aborts the innermost alternative and blocks re-execution until a
// previously read location may have changed.
func (t *Thread) Retry() {
	t.requireTxn()
	if t.irrevocable {
		// An irrevocable transaction runs exclusively: blocking it on a
		// change nobody can make is a guaranteed deadlock, and the
		// ladder invariant forbids the rollback.
		panic("native: Retry inside an irrevocable transaction")
	}
	panic(tm.RetrySignal{})
}

// Abort abandons the transaction; the enclosing Atomic returns
// tm.ErrUserAbort.
func (t *Thread) Abort() {
	t.requireTxn()
	if t.irrevocable {
		panic("native: Abort inside an irrevocable transaction")
	}
	panic(tm.UserAbortSignal{})
}

// --- Irrevocable escalation ---------------------------------------------------

// runIrrevocable is the ladder's last rung (invariant 5): the transaction
// excludes every other one — draining every revocable attempt — and runs
// with eager stores, an undo log for nested rollback, and no conflict
// abort path.
func (t *Thread) runIrrevocable(body func(tm.Txn) error) error {
	t.tb.Inc(telemetry.Escalations)
	t.sys.enterExclusive(t)
	t.tb.Inc(telemetry.IrrevocableEntries)
	t.inTxn, t.irrevocable = true, true
	t.undo = t.undo[:0]
	t.touched = t.touched[:0]
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	t.saves = t.saves[:0]
	// Chaos point: the transaction runs exclusively — a stall here
	// drains every revocable attempt against the irrevocable window. A
	// foreign panic from the body unwinds to Atomic's contain, which
	// replays the undo log and lets revocable attempts run again.
	t.chaosAt(pointIrrevocable)

	var result error
	var escaped interface{}
	err, sig := t.runBody(body)
	switch sig.(type) {
	case nil:
		if err != nil {
			// The body failed: replay the undo log and return the error,
			// exactly as a revocable attempt would roll back.
			for i := len(t.undo) - 1; i >= 0; i-- {
				t.sys.m.StoreAtomic(t.undo[i].addr, t.undo[i].old)
			}
			result = err
		} else {
			t.commitIrrevocable()
		}
	default:
		// Retry/Abort already panic with plain strings in irrevocable
		// mode, so an engine signal here is an engine bug: re-panic once
		// the locks and mode flags are sane again.
		escaped = sig
	}
	t.inTxn, t.irrevocable = false, false
	t.sys.exitExclusive()
	if escaped != nil {
		panic(escaped)
	}
	if result == nil && len(t.touched) > 0 {
		t.sys.notifyCommit()
	}
	return result
}

// commitIrrevocable stamps the transaction and bumps every touched stripe
// so retry waiters and later snapshots observe the in-place writes.
func (t *Thread) commitIrrevocable() {
	wv := t.sys.clock.Add(2)
	last := -1
	sort.Ints(t.touched)
	for _, ix := range t.touched {
		if ix == last {
			continue
		}
		last = ix
		t.sys.stripes[ix].v.Store(wv)
	}
	t.lastStamp = wv
	t.st.Commits++
	t.commits.Add(1)
	t.tb.ObserveMax(telemetry.UndoLogHWM, uint64(len(t.undo)))
	t.tb.ObserveMax(telemetry.RetryDepthHWM, uint64(t.fsm.Attempt()))
}
