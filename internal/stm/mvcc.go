package stm

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/stats"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// histDepth is how many displaced versions the MVCC policy retains per
// location. A snapshot older than the history's reach takes a prune-miss
// abort — the one abort a snapshot attempt can suffer.
const histDepth = 16

// histVersion is one retained version: val was the location's value until
// some writer displaced it, and ts is the commit timestamp of the write
// that MADE val current — so val serves any snapshot taken in [ts, next
// entry's ts).
type histVersion struct {
	ts  uint64
	val uint64
}

// versionStore is the MVCC system state shared by all of a system's
// threads: the global commit clock and the per-location version history.
type versionStore struct {
	// clock is the global commit clock's simulated address: CAS-incremented
	// by every writer commit, loaded once per snapshot attempt at begin.
	clock uint64

	// lastTS and hist are the multi-version store: the commit timestamp of
	// each location's newest write, and the displaced older versions. They
	// are Go-side model state mutated and read ONLY inside ctx.Step
	// closures, so the machine's one-op-at-a-time grant order serialises
	// all access (same discipline as the allocator).
	lastTS map[uint64]uint64
	hist   map[uint64][]histVersion
}

func newVersionStore(m *mem.Memory) *versionStore {
	// The clock gets its own cache line: every writer commit CASes it, and
	// false sharing with a transaction record would put phantom conflicts
	// into the figures.
	vs := &versionStore{
		clock:  m.Alloc(mem.LineSize, mem.LineSize),
		lastTS: make(map[uint64]uint64),
		hist:   make(map[uint64][]histVersion),
	}
	m.Store(vs.clock, 0)
	return vs
}

// advanceClock CAS-increments the global commit clock, returning this
// commit's timestamp.
func (vs *versionStore) advanceClock(ctx *sim.Ctx) uint64 {
	for {
		s := ctx.Load(vs.clock)
		if ok, _ := ctx.CAS(vs.clock, s, s+1); ok {
			return s + 1
		}
		ctx.Exec(1)
	}
}

// retain moves addr's current value into its version history and stamps
// the location with commit timestamp wv, inside one architectural step
// that precedes the data store — so a concurrent snapshot read that sees
// the new value is guaranteed to also see the new timestamp.
func (vs *versionStore) retain(ctx *sim.Ctx, addr, wv uint64) {
	ctx.Step(func(m *sim.Machine) uint64 {
		old := m.Mem.Load(addr)
		h := append(vs.hist[addr], histVersion{ts: vs.lastTS[addr], val: old})
		if len(h) > histDepth {
			h = h[len(h)-histDepth:]
		}
		vs.hist[addr] = h
		vs.lastTS[addr] = wv
		return 2
	})
}

// mvcc is the mvcc-snapshot versioning policy: deferred-buffer writers
// publishing into a version store, and a snapshot mode every attempt
// starts in. A snapshot attempt reads the clock at begin and serves each
// read from current memory if the location's last-writer timestamp is
// within the snapshot, or from the retained history otherwise. One that
// never stores commits without validation and without touching the clock
// — read-only MVCC transactions never abort (the only abort a snapshot
// attempt can take is a history prune miss, counted by the snapshot_aborts
// telemetry counter and asserted zero in tests). The first store upgrades
// the attempt in place to the deferred writer protocol when the snapshot
// is still current, and otherwise restarts the attempt pinned to writer
// mode (a writer-restart trace terminal, not an abort; at most one restart
// per transaction). Snapshot readers never wait on other readers and
// writers never wait on readers, so the snapshot read path's bounded lock
// wait (a writer's finite commit section) cannot deadlock. While a
// transaction is irrevocable every other core is drained, so its snapshot
// can never go stale and a writer restart is impossible — the serial
// attempt keeps its no-abort guarantee.
type mvcc struct {
	deferred
	vs *versionStore

	// snapshot is true while the attempt has not stored: reads validate
	// against the begin-time snapTS instead of being revalidated at commit.
	// histServed records that at least one read came from the version
	// history (so the attempt can no longer upgrade in place — history
	// values are not current memory).
	snapshot   bool
	snapTS     uint64
	histServed bool
}

func (p *mvcc) begin() {
	p.deferred.begin()
	p.histServed = false
	p.snapshot = !p.t.writerPinned
	if p.snapshot {
		// One clock load fixes the attempt's snapshot timestamp.
		ctx := p.t.ctx
		p.snapTS = ctx.Load(p.vs.clock)
		ctx.Exec(1)
	}
}

func (p *mvcc) historyServed() bool { return p.histServed }

// onAbort counts an abort of a still-read-only attempt: the only possible
// cause is a version-history prune miss, so tests can assert the
// read-only never-abort guarantee as "this stays zero".
func (p *mvcc) onAbort() {
	if p.snapshot {
		p.t.ctx.Telem().Inc(telemetry.SnapshotAborts)
	}
}

// consistent: snapshot-mode reads are consistent by construction (each was
// served from a single committed snapshot), so a snapshot attempt's panic
// is always genuinely foreign.
func (p *mvcc) consistent() bool { return p.snapshot || p.deferred.consistent() }

func (p *mvcc) savepoint() savepoint {
	sp := p.deferred.savepoint()
	sp.histServed = p.histServed
	return sp
}

// rollbackTo deliberately does NOT revert an in-place snapshot->writer
// upgrade that happened inside the nested block: staying in writer mode is
// always correct (it validates at commit), merely less optimistic.
func (p *mvcc) rollbackTo(sp savepoint) {
	p.deferred.rollbackTo(sp)
	p.histServed = sp.histServed
}

func (p *mvcc) commit() (bool, stats.AbortCause, string) {
	if !p.snapshot {
		return p.commitWriter(p.vs)
	}
	// Read-only commit: every read was served from one committed snapshot,
	// so the attempt is already serialized at its begin-time timestamp. No
	// validation, no clock traffic, no abort path.
	return true, 0, fmt.Sprintf("read-only snapshot reads=%d", len(p.t.reads))
}

func (p *mvcc) load(rec, addr uint64, viaTable bool) uint64 {
	if !p.snapshot {
		return p.deferred.load(rec, addr, viaTable)
	}
	p.bufferLookup(addr) // charged, and always a miss: a snapshot attempt has not stored
	if viaTable {
		p.t.chargeAddrCompute(stats.RdBar)
	}
	return p.snapshotLoad(rec, addr)
}

// snapshotLoad is the snapshot read barrier. It never aborts on
// contention: a locked record means a writer is inside its finite commit
// section, so the reader waits it out (writers never wait on readers, so
// the wait cannot deadlock). The loaded value is then checked against the
// location's last-writer timestamp: within the snapshot it is accepted
// (and logged, keeping an in-place upgrade possible); past the snapshot
// the read is served from the version history instead.
func (p *mvcc) snapshotLoad(rec, addr uint64) uint64 {
	t := p.t
	ctx := t.ctx
	prev := ctx.SetCat(stats.RdBar)
	v := ctx.Load(rec)
	ctx.Exec(2)
	if !IsVersion(v) {
		wait := tm.NewBackoff(ctx.ID())
		for !IsVersion(v) {
			wait.Wait(ctx)
			v = ctx.Load(rec)
			ctx.Exec(2)
		}
	}
	ctx.SetCat(prev)
	val := t.appLoad(addr)

	vs := p.vs
	snapTS := p.snapTS
	served, miss := false, false
	vprev := ctx.SetCat(stats.Validate)
	ctx.Step(func(m *sim.Machine) uint64 {
		ts := vs.lastTS[addr]
		if ts <= snapTS {
			return 4
		}
		h := vs.hist[addr]
		for i := len(h) - 1; i >= 0; i-- {
			if h[i].ts <= snapTS {
				val = h[i].val
				served = true
				return uint64(4 + 2*(len(h)-i))
			}
		}
		miss = true
		return uint64(4 + 2*len(h))
	})
	ctx.SetCat(vprev)

	b := ctx.Telem()
	b.Inc(telemetry.SnapshotReads)
	if miss {
		// The version this snapshot needs was pruned from the history: the
		// one abort a snapshot attempt can take.
		panic(tm.AbortSignal{Cause: stats.AbortValidation})
	}
	if served {
		b.Inc(telemetry.VersionHistoryReads)
		p.histServed = true
		return val
	}
	t.Stats().UnfilteredReads++
	t.logRead(rec, v)
	return val
}

// store upgrades a snapshot attempt to writer mode (or restarts it) at its
// first store, then buffers the store.
func (p *mvcc) store(rec, addr, val uint64) {
	if p.snapshot {
		p.upgradeToWriter()
	}
	p.deferred.store(rec, addr, val)
}

// upgradeToWriter converts a snapshot attempt into a deferred writer at its
// first store. The upgrade is valid only when the snapshot is provably
// still current: no read came from the version history, and every logged
// read record still holds its logged version — then the snapshot IS the
// present, and the logged reads carry over as an ordinary read set.
// Otherwise the attempt restarts pinned to writer mode.
func (p *mvcc) upgradeToWriter() {
	t := p.t
	ctx := t.ctx
	prev := ctx.SetCat(stats.Validate)
	ok := !p.histServed
	if ok {
		ctx.Exec(2)
		for _, e := range t.reads {
			cur := ctx.Load(e.Rec)
			ctx.Exec(2)
			if cur != e.Ver {
				ok = false
				break
			}
		}
	}
	ctx.SetCat(prev)
	if !ok {
		panic(writerRestart{})
	}
	p.snapshot = false
	ctx.Telem().Inc(telemetry.MVCCUpgrades)
	ctx.TraceEvent("upgrade", fmt.Sprintf("snapshot -> writer (%d reads revalidated)", len(t.reads)))
	ctx.EmitTxn(telemetry.TxnEvent{Txn: t.txnSeq, Retry: t.fsm.Attempt(),
		Kind: telemetry.EvUpgrade, Reads: len(t.reads)})
}
