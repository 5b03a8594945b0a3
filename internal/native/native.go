// Package native is the host-goroutine STM backend: real threads, real
// memory, real time. It implements the same tm.Txn contract as the
// simulator schemes — Load/Store, closed nesting with partial rollback,
// retry/orElse, explicit abort, and the retry-budget irrevocable
// escalation ladder — with a TL2-style algorithm (global version clock,
// per-stripe versioned write-locks, commit-time lock acquisition,
// read-set revalidation) so the reproduction can report multicore
// throughput in transactions per second beside simulated cycles.
//
// The simulator remains the conformance oracle: the differential suite in
// internal/workloads runs identical workload cells on both backends and
// checks the native backend commits exactly the states the simulator does.
//
// # Commit protocol invariants (TL2)
//
//  1. The global clock only holds even values; odd stripe words are
//     write-locks (owner<<1 | 1), even stripe words are commit versions.
//  2. A transactional read is consistent iff the stripe version is even,
//     unchanged across the data load, and <= the transaction's read
//     version rv. Reads are therefore valid the moment they happen; a
//     read-only transaction needs no commit-time validation.
//  3. Writers buffer updates, then acquire the write-set stripes in
//     ascending index order (no lock-order cycles), take wv from the
//     clock, revalidate the read set (a stripe the committer itself
//     locked validates against its pre-lock version), publish the
//     buffered values, and release every stripe to wv.
//  4. wv is the transaction's serialization stamp: any transaction that
//     observes its effects reads stripe versions >= wv and so has rv >=
//     wv. Committed-op logs sorted by stamp replay the run serially.
//  5. An escalated (irrevocable) transaction runs alone: it takes the
//     ladder mutex, raises the system's excl flag and waits until every
//     thread's active slot is clear. A revocable attempt stores its slot
//     and then loads excl, backing off to the mutex if excl is set; the
//     escalator stores excl and then loads every slot. Go's sync/atomic
//     operations are sequentially consistent, so by Dekker's argument at
//     least one side sees the other's store and the two never overlap.
//     Readers write only their own slot's cache line. The escalated
//     transaction writes eagerly with an undo log (so nesting still rolls
//     back partially), and bumps the stripes it touched at commit so
//     retry waiters observe the change.
package native

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/stats"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// stripeShift maps addresses to stripes at cache-line granularity: words
// on one 64-byte line share a versioned write-lock, as the paper's
// unmanaged-environment record table does (bits 6..).
const stripeShift = 6

// stripe is one versioned write-lock, padded to a cache line so adjacent
// stripes never false-share under real coherence traffic.
type stripe struct {
	v atomic.Uint64
	_ [7]uint64
}

// Config parameterises one native System.
type Config struct {
	// TM carries the shared knobs. Granularity is advisory here: conflict
	// detection is always per 64-byte stripe (object and line granularity
	// coincide). ValidateEvery is ignored — TL2 reads are validated the
	// moment they happen, so there is nothing for a periodic pass to add.
	// Progress.RetryBudget arms the escalation ladder; Progress.Token is a
	// simulated-memory construct and is ignored (the native ladder is the
	// per-thread active slots plus the excl flag; see invariant 5).
	TM tm.Config
	// Threads is the number of Thread handles New creates (and sizes the
	// per-thread stats and telemetry blocks).
	Threads int
	// ArenaBytes sizes the transactional allocation arena carved out of
	// the address space at creation; 0 means 4 MiB. Transactions must
	// allocate only from this arena (Txn.Alloc), never via mem.Alloc,
	// so the page table cannot grow — and race — during a run.
	ArenaBytes uint64
	// Stripes is the size of the versioned-write-lock table; 0 means
	// 1<<14. Must be a power of two.
	Stripes int
	// Chaos arms the native fault-injection plane (off when zero). See
	// ChaosSpec and ParseChaosSpec for the spec grammar.
	Chaos ChaosSpec
	// Watchdog configures the host watchdog plane; zero fields take the
	// defaults documented on Watchdog. The bounded waitForChange deadline
	// is always in force, the scanner only after StartWatchdog.
	Watchdog Watchdog
}

// cacheLinePad keeps the fields on either side of it off one cache line.
type cacheLinePad [64]byte

// System is one native TL2 instance over a memory.
type System struct {
	m       *mem.Memory
	cfg     Config
	stripes []stripe
	mask    uint64
	armed   bool // the escalation ladder is in force (RetryBudget > 0)
	threads []*Thread
	stats   *stats.Machine
	telem   *telemetry.Machine
	// failed holds the first watchdog violation; with the threads' commit
	// counts it is the watchdog plane's shared state (see watchdog.go).
	failed atomic.Pointer[NativeProgressViolation]

	// The fields above are read on every transaction and written only by
	// New (failed: by the one watchdog trip); the padding keeps every
	// writer commit's clock tick from invalidating them.
	_     cacheLinePad
	clock atomic.Uint64 // global version clock, always even
	_     cacheLinePad

	// excl is raised while an escalated transaction runs or drains the
	// active slots; serialMu serialises escalators and is where a
	// revocable attempt that finds excl set waits (invariant 5). Every
	// attempt reads excl, so it shares no line with a hot written field.
	excl     atomic.Bool
	serialMu sync.Mutex
	_        cacheLinePad

	// wakeMu/wakeCh implement Txn.Retry wakeup as a generation channel:
	// a commit that finds waiters registered closes the current channel
	// and installs a fresh one; waiters register, then snapshot the
	// channel before re-checking their watched stripes, so a change can
	// never slip between the check and the wait. Unlike a sync.Cond this
	// supports the bounded wake deadline.
	waiters atomic.Int32
	wakeMu  sync.Mutex
	wakeCh  chan struct{}
	_       cacheLinePad

	arenaNext atomic.Uint64
	arenaEnd  uint64
	wdStop    chan struct{}
	wdDone    chan struct{}
}

// New builds a native system over m. Call after the workload's structures
// are populated: New pre-materialises the allocation arena so the page
// table never grows once concurrent transactions run.
func New(m *mem.Memory, cfg Config) *System {
	if cfg.Threads <= 0 {
		panic("native: Config.Threads must be positive")
	}
	if cfg.ArenaBytes == 0 {
		cfg.ArenaBytes = 4 << 20
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = 1 << 14
	}
	if cfg.Stripes&(cfg.Stripes-1) != 0 {
		panic(fmt.Sprintf("native: Config.Stripes %d is not a power of two", cfg.Stripes))
	}
	cfg.Watchdog = cfg.Watchdog.withDefaults()
	s := &System{
		m:       m,
		cfg:     cfg,
		stripes: make([]stripe, cfg.Stripes),
		mask:    uint64(cfg.Stripes - 1),
		armed:   cfg.TM.Progress.RetryBudget > 0,
		stats:   stats.NewMachine(cfg.Threads),
		telem:   telemetry.NewMachine(cfg.Threads),
		threads: make([]*Thread, cfg.Threads),
	}
	for id := range s.threads {
		s.threads[id] = newThread(s, id)
	}
	s.wakeCh = make(chan struct{})
	arena := m.Preallocate(cfg.ArenaBytes)
	s.arenaNext.Store(arena)
	s.arenaEnd = arena + cfg.ArenaBytes
	return s
}

// Name identifies the scheme.
func (s *System) Name() string { return "native-tl2" }

// Memory returns the backing address space.
func (s *System) Memory() *mem.Memory { return s.m }

// Stats returns the per-thread stats store.
func (s *System) Stats() *stats.Machine { return s.stats }

// Telemetry returns the per-thread telemetry store.
func (s *System) Telemetry() *telemetry.Machine { return s.telem }

// Clock returns the current global version (even; 0 before any commit).
func (s *System) Clock() uint64 { return s.clock.Load() }

// Thread returns the handle for goroutine slot id (0 <= id < Threads).
// New creates every handle, so the escalator and the watchdog can scan
// the handle table while workers run. A handle must only ever be used
// from one goroutine at a time.
func (s *System) Thread(id int) tm.Thread {
	if id < 0 || id >= len(s.threads) {
		panic(fmt.Sprintf("native: thread id %d out of range [0,%d)", id, len(s.threads)))
	}
	return s.threads[id]
}

func newThread(s *System, id int) *Thread {
	t := &Thread{
		sys:      s,
		id:       id,
		lockWord: uint64(id)<<1 | 1,
		st:       &s.stats.Cores[id],
		tb:       s.telem.Block(id),
		windex:   make(map[uint64]int, 64),
		owned:    make(map[int]uint64, 16),
		fsm:      tm.AttemptFSM{RetryBudget: s.cfg.TM.Progress.RetryBudget},
		boRng:    chaosMix(0x626b6f666668a5a5, uint64(id)),
	}
	if s.cfg.Chaos.Enabled() {
		t.chaos = newChaosThread(s.cfg.Chaos, id)
	}
	return t
}

// commitCount sums every thread's commit count: the watchdog's progress
// measure, monotone because each term is.
func (s *System) commitCount() uint64 {
	var n uint64
	for _, t := range s.threads {
		n += t.commits.Load()
	}
	return n
}

// enterRevocable publishes t's active slot for one revocable attempt,
// first waiting out any escalated transaction (invariant 5).
func (s *System) enterRevocable(t *Thread) {
	for {
		t.active.Store(1)
		if !s.excl.Load() {
			return
		}
		t.active.Store(0)
		s.serialMu.Lock()
		s.serialMu.Unlock()
	}
}

// enterExclusive makes t the only running transaction: it takes the
// ladder mutex, raises excl and waits for every active slot to clear.
// A watchdog trip while draining releases both before unwinding.
func (s *System) enterExclusive(t *Thread) {
	s.serialMu.Lock()
	s.excl.Store(true)
	defer func() {
		if r := recover(); r != nil {
			s.exitExclusive()
			panic(r)
		}
	}()
	for _, o := range s.threads {
		for spins := 1; o.active.Load() != 0; spins++ {
			t.spinYield(spins)
		}
	}
}

// exitExclusive lets revocable attempts run again.
func (s *System) exitExclusive() {
	s.excl.Store(false)
	s.serialMu.Unlock()
}

// stripeIndex maps an address to its versioned-write-lock slot.
func (s *System) stripeIndex(addr uint64) int {
	return int((addr >> stripeShift) & s.mask)
}

// alloc carves a transactional allocation out of the arena with an atomic
// bump; concurrency-safe. Exhaustion raises an arenaExhausted panic that
// the enclosing Atomic's containment turns into ErrArenaExhausted.
func (s *System) alloc(size, align uint64) uint64 {
	if align < mem.WordSize {
		align = mem.WordSize
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("native: alignment %d is not a power of two", align))
	}
	if size == 0 {
		size = mem.WordSize
	}
	for {
		cur := s.arenaNext.Load()
		addr := (cur + align - 1) &^ (align - 1)
		next := addr + ((size + mem.WordSize - 1) &^ (mem.WordSize - 1))
		if next > s.arenaEnd {
			panic(arenaExhausted{need: size, arena: s.cfg.ArenaBytes})
		}
		if s.arenaNext.CompareAndSwap(cur, next) {
			return addr
		}
	}
}

// notifyCommit wakes every retry waiter to re-check its watch set by
// retiring the current wake-channel generation. With no waiter registered
// it does nothing, so a commit allocates no channel. No wakeup is lost:
// the committer releases its stripes and then loads the waiter count, a
// waiter registers and then loads the stripes, and the two sequences are
// sequentially consistent, so either the committer sees the waiter or
// the waiter sees the new stripe versions. A registered waiter snapshots
// the channel before checking its stripes, so a close can never slip
// between its check and its wait.
func (s *System) notifyCommit() {
	if s.waiters.Load() == 0 {
		return
	}
	s.wakeMu.Lock()
	close(s.wakeCh)
	s.wakeCh = make(chan struct{})
	s.wakeMu.Unlock()
}

// waitForChange blocks until some watched stripe's word differs from the
// version recorded when it was read (a new version, or a write-lock in
// flight). The wait is bounded by the watchdog's WakeDeadline: a waiter
// that sees no notification within the deadline re-validates the watch
// set and re-arms (counted in telemetry as a wakeup timeout), so a lost
// or delayed wakeup degrades to a re-check instead of a permanent hang.
// A transaction that called Retry without reading anything has an empty
// watch set and, absent a watchdog trip, re-checks forever — nothing
// could legitimately wake it, the same deadlock the simulator backends
// exhibit.
func (s *System) waitForChange(t *Thread, watch []readEntry) {
	changed := func() bool {
		for _, e := range watch {
			if s.stripes[e.ix].v.Load() != e.ver {
				return true
			}
		}
		return false
	}
	s.waiters.Add(1)
	defer s.waiters.Add(-1)
	deadline := s.cfg.Watchdog.WakeDeadline
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for {
		s.wakeMu.Lock()
		ch := s.wakeCh
		s.wakeMu.Unlock()
		if s.failed.Load() != nil {
			panic(stopSignal{})
		}
		if changed() {
			return
		}
		select {
		case <-ch:
			if t.chaos != nil && t.chaos.wakeDelay() {
				t.tb.Inc(telemetry.ChaosInjected)
			}
		case <-timer.C:
			t.tb.Inc(telemetry.WakeupTimeouts)
			timer.Reset(deadline)
		}
	}
}
