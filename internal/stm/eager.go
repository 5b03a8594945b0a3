package stm

import (
	"fmt"

	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/stats"
	"hastm.dev/hastm/internal/telemetry"
	"hastm.dev/hastm/internal/tm"
)

// UndoEntry records a data word's old value for rollback.
type UndoEntry struct {
	Addr uint64
	Old  uint64
}

// eager is the eager-undo versioning policy of §4: a store acquires its
// record at once with a CAS (strict two-phase locking) and updates memory
// in place behind an undo log. Its barriers carry the Accel hooks HASTM
// plugs into; a nil accel is the base STM.
type eager struct {
	singleVersion
	t     *Thread
	accel Accel

	undoLog uint64 // undo log base address in simulated memory

	// Go-side mirrors of the simulated write-set and undo logs.
	writes []RecEntry
	undo   []UndoEntry

	writeVer map[uint64]uint64 // rec -> version at acquire, for validation
}

func newEager(t *Thread, m *mem.Memory, factory func(*Thread) Accel) *eager {
	p := &eager{
		t:        t,
		undoLog:  m.Alloc(logCap*entryBytes, mem.LineSize),
		writeVer: make(map[uint64]uint64, 64),
	}
	if factory != nil {
		p.accel = factory(t)
	}
	return p
}

func (p *eager) begin() {
	p.writes = p.writes[:0]
	p.undo = p.undo[:0]
	clear(p.writeVer)
	t := p.t
	t.ctx.Store(t.desc+descUndoLog, p.undoLog)
	if p.accel != nil {
		p.accel.Begin(t, t.fsm.Attempt())
	}
}

func (p *eager) end(committed bool) {
	if p.accel != nil {
		p.accel.End(p.t, committed)
	}
}

func (p *eager) consistent() bool { return p.t.readsMatch(p.writeVer) }

func (p *eager) footprint() (int, int, telemetry.Gauge) {
	return len(p.writes), len(p.undo), telemetry.WriteSetHWM
}

func (p *eager) logs() ([]RecEntry, []UndoEntry, bool) { return p.writes, p.undo, true }

func (p *eager) savepoint() savepoint {
	return savepoint{reads: len(p.t.reads), writes: len(p.writes), undo: len(p.undo)}
}

func (p *eager) commit() (bool, stats.AbortCause, string) {
	t := p.t
	ctx := t.ctx
	ctx.SetCat(stats.Validate)
	ok, cause := p.validate(true)
	ctx.SetCat(stats.Commit)
	if !ok {
		return false, cause, ""
	}
	for _, w := range p.writes {
		ctx.Store(w.Rec, NextVersion(w.Ver))
		ctx.Exec(2)
	}
	return true, 0, fmt.Sprintf("reads=%d writes=%d", len(t.reads), len(p.writes))
}

// validate checks the read set. With acceleration, the mark counter can
// prove the read set intact without touching it (Fig 6). On failure the
// returned cause distinguishes a real conflict from an aggressive-mode
// transaction that merely lost the ability to validate (no read set to
// fall back on).
func (p *eager) validate(atCommit bool) (bool, stats.AbortCause) {
	t := p.t
	if p.accel != nil {
		skipFull, ok := p.accel.PreValidate(t, atCommit)
		if !ok {
			return false, stats.AbortAggressive
		}
		if skipFull {
			t.Stats().FastValidations++
			t.ctx.TraceEvent("validate", "fast (mark counter zero)")
			return true, 0
		}
	}
	return t.validateReads("full (%d reads)", p.writeVer)
}

func (p *eager) discard() { p.rollbackTo(savepoint{}) }

// rollbackTo reverts data and ownership to a savepoint (partial rollback
// for nested transactions, full rollback for the zero savepoint).
func (p *eager) rollbackTo(sp savepoint) {
	ctx := p.t.ctx
	prev := ctx.SetCat(stats.Commit)

	// Restore data from the undo log, newest first.
	for i := len(p.undo) - 1; i >= sp.undo; i-- {
		e := p.undo[i]
		ctx.Load(p.undoLog + uint64(i)*entryBytes)     // entry addr word
		ctx.Load(p.undoLog + uint64(i)*entryBytes + 8) // entry value word
		ctx.Store(e.Addr, e.Old)
		ctx.Exec(2)
	}
	p.undo = p.undo[:sp.undo]

	// Release records acquired since the savepoint.
	for i := len(p.writes) - 1; i >= sp.writes; i-- {
		w := p.writes[i]
		ctx.Store(w.Rec, NextVersion(w.Ver))
		ctx.Exec(2)
		delete(p.writeVer, w.Rec)
	}
	p.writes = p.writes[:sp.writes]

	if p.accel != nil {
		p.accel.OnPartialRollback(p.t)
	}
	ctx.SetCat(prev)
}

// load is the read barrier. Under line granularity HASTM first tries the
// data-line filter (Fig 7/9) and finishes with the marking data load.
func (p *eager) load(rec, addr uint64, viaTable bool) uint64 {
	t := p.t
	lineAccel := viaTable && p.accel != nil && t.sys.cfg.Granularity == tm.LineGranularity
	if lineAccel {
		if v, ok := p.accel.FilterData(t, addr); ok {
			t.Stats().FilteredReads++
			return v
		}
	}
	if viaTable {
		t.chargeAddrCompute(stats.RdBar)
	}
	p.readBarrier(rec)
	if lineAccel {
		// Trailing loadsetmark_granularity64 both marks the data line and
		// performs the data load (Fig 7).
		return p.accel.MarkData(t, addr)
	}
	return t.appLoad(addr)
}

// readBarrier is stmRdBar (Fig 3/4) with the HASTM fast paths (Fig 5/8)
// plugged in via the accel hooks.
func (p *eager) readBarrier(rec uint64) {
	t := p.t
	ctx := t.ctx
	prev := ctx.SetCat(stats.RdBar)
	defer ctx.SetCat(prev)

	var v uint64
	if p.accel != nil {
		// Object granularity filters on the record (Fig 5/8); line
		// granularity does so only under the §5 two-level option ("the
		// read barrier slow path checks whether the transaction record is
		// marked before executing the rest of the slow path") — the hook
		// knows which applies.
		if p.accel.FilterRecord(t, rec) {
			ctx.Exec(1) // jnae done
			t.Stats().FilteredReads++
			return
		}
		v = p.accel.LoadRecordForRead(t, rec)
		ctx.Exec(2) // test versionmask + jz
	} else {
		v = ctx.Load(rec)
		ctx.Exec(2) // cmp txndesc + jeq
		if v == t.desc {
			return
		}
		ctx.Exec(2) // test versionmask + jz
	}

	if !IsVersion(v) {
		if v == t.desc {
			return // recursion: we already own it exclusively
		}
		v = t.handleContention(rec)
	}

	t.Stats().UnfilteredReads++
	if p.accel == nil || p.accel.ShouldLogRead(t) {
		t.logRead(rec, v)
	} else {
		t.Stats().ReadLogsSkipped++
	}
	t.periodicValidate()
}

func (p *eager) store(rec, addr, val uint64) {
	p.writeBarrier(rec)
	p.undoLogAndStore(addr, val)
}

// writeBarrier is stmWrBar (Fig 3): acquire the record exclusively with a
// CAS, logging the displaced version in the write set.
func (p *eager) writeBarrier(rec uint64) {
	t := p.t
	ctx := t.ctx
	prev := ctx.SetCat(stats.WrBar)
	defer ctx.SetCat(prev)

	if p.accel != nil && p.accel.FilterWriteOwned(t, rec) {
		// Plane-1 mark intact: the record is still exclusively ours.
		t.Stats().FilteredWrites++
		return
	}

	v := ctx.Load(rec)
	ctx.Exec(2)
	if v == t.desc {
		return
	}
	ctx.Exec(2)
	if !IsVersion(v) {
		v = t.handleContention(rec)
	}
	for {
		ok, cur := ctx.CAS(rec, v, t.desc)
		if ok {
			break
		}
		ctx.Exec(1)
		if IsVersion(cur) {
			v = cur // raced with a release; retry at the new version
			continue
		}
		v = t.handleContention(rec)
	}
	if len(p.writes) >= logCap {
		panic("stm: write-set log overflow; raise logCap or shorten the transaction")
	}
	t.appendLog(descWrLog, rec, v)
	p.writes = append(p.writes, RecEntry{rec, v})
	p.writeVer[rec] = v
	if p.accel != nil {
		p.accel.MarkRecordOnWrite(t, rec)
		p.accel.MarkWriteOwned(t, rec)
	}
}

// undoLogAndStore logs the old value of addr and performs the in-place
// update (eager version management, §4). With the write-filtering
// extension active, logging happens once per 16-byte sub-block (both
// words captured) and plane-1 marks elide the duplicates.
func (p *eager) undoLogAndStore(addr, val uint64) {
	if len(p.undo) >= logCap-1 {
		panic("stm: undo log overflow; raise logCap or shorten the transaction")
	}
	t := p.t
	ctx := t.ctx
	prev := ctx.SetCat(stats.WrBar)

	if p.accel != nil && p.accel.UndoFilterEnabled() {
		if p.accel.FilterUndo(t, addr) {
			t.Stats().UndoLogsSkipped++
		} else {
			// First store to this sub-block: capture both of its words so
			// later (filtered) stores to either are covered by replay.
			sub := addr &^ 15
			m := ctx.Machine().Mem
			for off := uint64(0); off < 16; off += 8 {
				w := sub + off
				if !m.Allocated(w) {
					continue // padding word outside any allocation
				}
				p.appendUndo(w, ctx.Load(w))
			}
			p.accel.MarkUndo(t, addr)
		}
	} else {
		p.appendUndo(addr, ctx.Load(addr))
	}

	ctx.SetCat(stats.App)
	ctx.Store(addr, val)
	ctx.SetCat(prev)
}

// appendUndo writes one undo entry to the simulated log and the mirror.
func (p *eager) appendUndo(addr, old uint64) {
	p.t.appendLog(descUndoLog, addr, old)
	p.undo = append(p.undo, UndoEntry{addr, old})
}
