package stm

import (
	"fmt"
	"slices"

	"hastm.dev/hastm/internal/stats"
	"hastm.dev/hastm/internal/telemetry"
)

// wbEntry is one write-buffer entry: the buffered (address, value) pair,
// the address's transaction record (precomputed so object-granularity
// stores keep their header record), and the index of the previous buffered
// write to the same address (-1 if none) — the chain savepoint rollback
// walks to restore the latest-write index.
type wbEntry struct {
	Addr uint64
	Val  uint64
	Rec  uint64
	Prev int
}

// deferred is the deferred-buffer (lazy) versioning policy. Every store
// goes to a per-transaction write buffer (read-through-own-writes) and
// shared data is touched only inside the commit protocol:
//
//  1. Acquire the transaction record of every buffered address with a CAS,
//     in ascending record order. Ascending order means two committers can
//     never hold records the other needs in a cycle; a bounded
//     contention-policy wait backstops the proof, failing the commit with
//     a lock-conflict abort.
//  2. Validate the read set — every logged record must still hold its
//     logged version (or be self-owned at that version) — BEFORE any data
//     word is written. This is the sandboxing step: a transaction that read
//     inconsistent data is caught while its effects are still private.
//  3. Write back the buffered values (latest value per address) and
//     release every record at the next version.
//
// A failed commit releases its acquired records at their ORIGINAL displaced
// versions: no data changed under them, so concurrent readers that
// validated against those versions remain valid, and the no-bump release
// cannot produce ABA (nobody can log a read of a record while it is
// exclusively owned). Abort-path rollback is therefore pure log truncation
// — nothing the attempt did ever reached shared memory. The buffer lives
// in the thread's write log.
type deferred struct {
	singleVersion
	t *Thread

	wb    []wbEntry      // Go-side mirror of the simulated write buffer
	wbIdx map[uint64]int // addr -> index of its latest wb entry

	// Commit-protocol state: records acquired this commit in acquisition
	// (ascending) order with their displaced versions, plus the rec->version
	// map the sandboxed validation consults for self-owned records. The
	// body holds no records, so both are empty outside commit.
	acq        []RecEntry
	acqVer     map[uint64]uint64
	recScratch []uint64
}

func newDeferred(t *Thread) *deferred {
	return &deferred{t: t, wbIdx: make(map[uint64]int, 64), acqVer: make(map[uint64]uint64, 64)}
}

func (p *deferred) begin() {
	p.wb = p.wb[:0]
	clear(p.wbIdx)
	p.acq = p.acq[:0]
	clear(p.acqVer)
}

func (p *deferred) end(bool) {}

func (p *deferred) consistent() bool { return p.t.readsMatch(p.acqVer) }

func (p *deferred) footprint() (int, int, telemetry.Gauge) {
	return len(p.wb), 0, telemetry.WriteBufferHWM
}

func (p *deferred) logs() ([]RecEntry, []UndoEntry, bool) { return nil, nil, false }

func (p *deferred) savepoint() savepoint {
	return savepoint{reads: len(p.t.reads), writes: len(p.wb)}
}

// discard abandons the attempt's private state. Nothing reached shared
// memory (any commit-time acquisitions were already released by the failed
// commit itself), so it is pure truncation.
func (p *deferred) discard() {
	p.wb = p.wb[:0]
	clear(p.wbIdx)
}

// rollbackTo unwinds the write buffer to a nested transaction's entry
// point, newest first, restoring each address's latest-write index via the
// Prev chain.
func (p *deferred) rollbackTo(sp savepoint) {
	ctx := p.t.ctx
	prev := ctx.SetCat(stats.Commit)
	for i := len(p.wb) - 1; i >= sp.writes; i-- {
		e := p.wb[i]
		ctx.Load(p.t.wrLog + uint64(i)*entryBytes)
		ctx.Exec(2)
		if e.Prev >= 0 {
			p.wbIdx[e.Addr] = e.Prev
		} else {
			delete(p.wbIdx, e.Addr)
		}
	}
	p.wb = p.wb[:sp.writes]
	ctx.SetCat(prev)
}

func (p *deferred) validate(atCommit bool) (bool, stats.AbortCause) {
	format := "full (%d reads)"
	if atCommit {
		format = "commit sandbox (%d reads)"
	}
	return p.t.validateReads(format, p.acqVer)
}

func (p *deferred) load(rec, addr uint64, viaTable bool) uint64 {
	if v, ok := p.bufferLookup(addr); ok {
		return v
	}
	if viaTable {
		p.t.chargeAddrCompute(stats.RdBar)
	}
	return p.readShared(rec, addr)
}

// bufferLookup is the read-through-own-writes fast path: a load whose
// address has a buffered store returns the latest buffered value without
// touching the record.
func (p *deferred) bufferLookup(addr uint64) (uint64, bool) {
	ctx := p.t.ctx
	prev := ctx.SetCat(stats.RdBar)
	ctx.Exec(2) // buffer-index hash + branch
	i, ok := p.wbIdx[addr]
	if !ok {
		ctx.SetCat(prev)
		return 0, false
	}
	v := ctx.Load(p.t.wrLog + uint64(i)*entryBytes + 8)
	ctx.SetCat(prev)
	ctx.Telem().Inc(telemetry.WriteBufferHits)
	return v, true
}

// readShared is the shared-memory read barrier: the read is logged for
// commit-time revalidation.
func (p *deferred) readShared(rec, addr uint64) uint64 {
	t := p.t
	ctx := t.ctx
	prev := ctx.SetCat(stats.RdBar)
	v := ctx.Load(rec)
	ctx.Exec(2) // test versionmask + jz
	if !IsVersion(v) {
		v = t.handleContention(rec)
	}
	t.Stats().UnfilteredReads++
	t.logRead(rec, v)
	t.periodicValidate()
	ctx.SetCat(prev)
	return t.appLoad(addr)
}

// store appends a deferred store to the write buffer. No record is touched
// here — acquisition is commit-time work.
func (p *deferred) store(rec, addr, val uint64) {
	if len(p.wb) >= logCap {
		panic("stm: write-buffer overflow; raise logCap or shorten the transaction")
	}
	ctx := p.t.ctx
	prev := ctx.SetCat(stats.WrBar)
	p.t.appendLog(descWrLog, addr, val)
	prevIdx := -1
	if i, ok := p.wbIdx[addr]; ok {
		prevIdx = i
	}
	p.wb = append(p.wb, wbEntry{Addr: addr, Val: val, Rec: rec, Prev: prevIdx})
	p.wbIdx[addr] = len(p.wb) - 1
	ctx.SetCat(prev)
}

func (p *deferred) commit() (bool, stats.AbortCause, string) { return p.commitWriter(nil) }

// commitWriter runs the three-phase commit protocol. A non-nil vs is the
// MVCC version store the write-back publishes into.
func (p *deferred) commitWriter(vs *versionStore) (bool, stats.AbortCause, string) {
	ctx := p.t.ctx
	// Phase 1: acquire every written record, ascending.
	ctx.SetCat(stats.WrBar)
	if !p.acquireWriteRecs() {
		p.releaseAcquired(false)
		return false, stats.AbortLockConflict, ""
	}
	ctx.Telem().ObserveMax(telemetry.WriteSetHWM, uint64(len(p.acq)))

	// Phase 2: sandboxed validation, before any data word changes.
	ctx.SetCat(stats.Validate)
	if ok, cause := p.validate(true); !ok {
		p.releaseAcquired(false)
		return false, cause, ""
	}

	// Phase 3: write back and release.
	ctx.SetCat(stats.Commit)
	var wv uint64
	if vs != nil && len(p.wb) > 0 {
		wv = vs.advanceClock(ctx)
	}
	p.writeBack(vs, wv)
	p.releaseAcquired(true)
	return true, 0, fmt.Sprintf("reads=%d buffered=%d recs=%d",
		len(p.t.reads), len(p.wb), len(p.acqVer))
}

// acquireWriteRecs CASes every buffered address's record from shared to
// self-owned, in ascending record order (two committers can never deadlock
// on each other's records). A record that stays foreign-owned past the
// contention policy's bound fails the acquisition; the caller releases
// whatever was acquired.
func (p *deferred) acquireWriteRecs() bool {
	ctx := p.t.ctx
	p.recScratch = p.recScratch[:0]
	for _, e := range p.wb {
		p.recScratch = append(p.recScratch, e.Rec)
	}
	slices.Sort(p.recScratch)
	// The commit-time sort of the write set is real work: charge it
	// proportionally to the buffer it sorts.
	ctx.Exec(uint64(2 * len(p.wb)))
	var last uint64
	for i, rec := range p.recScratch {
		if i > 0 && rec == last {
			continue
		}
		last = rec
		if !p.acquireRec(rec) {
			return false
		}
	}
	return true
}

func (p *deferred) acquireRec(rec uint64) bool {
	t := p.t
	ctx := t.ctx
	v := ctx.Load(rec)
	ctx.Exec(2) // test versionmask + jz
	for {
		if !IsVersion(v) {
			// A failed acquisition must first release the records already
			// held (restoring their original versions), which a panic
			// would skip: wait without handleContention's abort.
			var ok bool
			if v, ok = t.waitShared(rec); !ok {
				return false
			}
		}
		ok, cur := ctx.CAS(rec, v, t.desc)
		if ok {
			break
		}
		ctx.Exec(1)
		v = cur
	}
	p.acq = append(p.acq, RecEntry{Rec: rec, Ver: v})
	p.acqVer[rec] = v
	return true
}

// writeBack publishes the buffered values: the latest value per address, in
// the buffer's append order (NEVER the Go map's iteration order — the
// write-back sequence must be deterministic). A version store records each
// displaced value at commit timestamp wv before the data store.
func (p *deferred) writeBack(vs *versionStore, wv uint64) {
	ctx := p.t.ctx
	for i, e := range p.wb {
		if p.wbIdx[e.Addr] != i {
			continue // superseded by a later buffered write
		}
		ctx.Load(p.t.wrLog + uint64(i)*entryBytes)     // entry addr word
		ctx.Load(p.t.wrLog + uint64(i)*entryBytes + 8) // entry value word
		if vs != nil {
			vs.retain(ctx, e.Addr, wv)
		}
		ctx.Store(e.Addr, e.Val)
		ctx.Exec(1)
	}
}

// releaseAcquired returns every record acquired by this commit to the
// shared state, newest first. A committed release publishes the next
// version; a failed commit restores the ORIGINAL displaced version — no
// data changed under the record, so readers that validated against it stay
// valid, and nobody can have logged the record while it was owned.
func (p *deferred) releaseAcquired(committed bool) {
	ctx := p.t.ctx
	for i := len(p.acq) - 1; i >= 0; i-- {
		e := p.acq[i]
		if committed {
			ctx.Store(e.Rec, NextVersion(e.Ver))
		} else {
			ctx.Store(e.Rec, e.Ver)
		}
		ctx.Exec(2)
	}
	p.acq = p.acq[:0]
	clear(p.acqVer)
}
