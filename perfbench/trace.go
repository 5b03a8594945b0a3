package main

import (
	"bufio"
	"fmt"
	"os"

	"hastm.dev/hastm/internal/tm"
)

// spanEvery is the request sampling stride of the traced run: every
// request is counted, every spanEvery-th also records timed spans. Full
// span capture of a five-second open-loop phase would be millions of
// records; one in 64 keeps percentiles well resolved at a fraction
// of the cost.
const spanEvery = 64

// maxOpSpans bounds the service.op spans kept per request (ids reserve 62
// child slots under each request).
const maxOpSpans = 62

type spanKind uint8

const (
	spanRequest spanKind = iota // one benchmark request: due (or issue) to completion
	spanAtomic                  // native.atomic: the Thread.Atomic call
	spanOp                      // service.op: one attempt's Bank.Op body
)

var spanNames = [...]string{"request", "native.atomic", "service.op"}

// span is one recorded interval. Spans of one request share req; the
// counts are those at the span's own boundary (for a service.op span,
// attempts is the attempt's 1-based number).
type span struct {
	req        uint64
	start, end int64 // ns since the benchmark epoch
	attempts   uint32
	loads      uint32
	stores     uint32
	kind       spanKind
	writes     bool // request: the request commits writes
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer is one worker's trace state: counters at every request boundary
// and sampled spans in a preallocated buffer, written out after the run.
// The padding keeps two workers' tracers off each other's cache lines.
type tracer struct {
	_       [64]byte
	spans   *offheap[span]
	n       int
	dropped uint64

	// Totals over every traced request; loads and stores are those of each
	// request's final (committed) attempt.
	requests, attempts, loads, stores uint64

	// State of the request in flight.
	req     uint64
	sampled bool
	attempt uint32
	curLd   uint32
	curSt   uint32
	_       [64]byte
}

func (tr *tracer) add(s span) {
	if tr.n == len(tr.spans.s) {
		tr.dropped++
		return
	}
	tr.spans.s[tr.n] = s
	tr.n++
}

// recorded returns the spans captured so far.
func (tr *tracer) recorded() []span { return tr.spans.s[:tr.n] }

// tracedThread wraps a tm.Thread: its Atomic records the native.atomic
// span and routes every attempt through runAttempt, which records the
// service.op span and hands the body a counting tracedTxn. Everything it
// needs is bound once, so a traced request allocates nothing.
type tracedThread struct {
	_ [64]byte // written per request: keep off a neighbour's cache lines
	tm.Thread
	tr      *tracer
	body    func(tm.Txn) error // the body of the Atomic in flight
	attempt func(tm.Txn) error // t.runAttempt, bound once
	txn     tracedTxn
	_       [64]byte
}

func newTracedThread(th tm.Thread, tr *tracer) *tracedThread {
	t := &tracedThread{Thread: th, tr: tr}
	t.attempt = t.runAttempt
	t.txn.tr = tr
	return t
}

// begin announces the next request; sampled requests record spans.
func (t *tracedThread) begin(req uint64, sampled bool) {
	t.tr.req, t.tr.sampled = req, sampled
}

func (t *tracedThread) Atomic(body func(tm.Txn) error) error {
	tr := t.tr
	t.body = body
	tr.attempt, tr.curLd, tr.curSt = 0, 0, 0
	var start int64
	if tr.sampled {
		start = nanotime()
	}
	err := t.Thread.Atomic(t.attempt)
	tr.requests++
	tr.attempts += uint64(tr.attempt)
	tr.loads += uint64(tr.curLd)
	tr.stores += uint64(tr.curSt)
	if tr.sampled {
		tr.add(span{req: tr.req, kind: spanAtomic, start: start, end: nanotime(),
			attempts: tr.attempt, loads: tr.curLd, stores: tr.curSt})
	}
	return err
}

func (t *tracedThread) runAttempt(tx tm.Txn) error {
	tr := t.tr
	tr.attempt++
	tr.curLd, tr.curSt = 0, 0
	t.txn.inner = tx
	if !tr.sampled || tr.attempt > maxOpSpans {
		return t.body(&t.txn)
	}
	// Deferred so an attempt the engine aborts mid-body still ends its span.
	defer t.endOp(nanotime())
	return t.body(&t.txn)
}

func (t *tracedThread) endOp(start int64) {
	tr := t.tr
	tr.add(span{req: tr.req, kind: spanOp, attempts: tr.attempt, start: start, end: nanotime()})
}

// tracedTxn counts the transactional accesses a body makes.
type tracedTxn struct {
	inner tm.Txn
	tr    *tracer
}

var (
	_ tm.Thread = (*tracedThread)(nil)
	_ tm.Txn    = (*tracedTxn)(nil)
)

func (x *tracedTxn) Load(addr uint64) uint64 { x.tr.curLd++; return x.inner.Load(addr) }
func (x *tracedTxn) Store(addr, val uint64)  { x.tr.curSt++; x.inner.Store(addr, val) }
func (x *tracedTxn) LoadObj(base, off uint64) uint64 {
	x.tr.curLd++
	return x.inner.LoadObj(base, off)
}
func (x *tracedTxn) StoreObj(base, off, val uint64) {
	x.tr.curSt++
	x.inner.StoreObj(base, off, val)
}

// Atomic and OrElse keep nested bodies on the counting handle.
func (x *tracedTxn) Atomic(body func(tm.Txn) error) error {
	return x.inner.Atomic(func(tm.Txn) error { return body(x) })
}

func (x *tracedTxn) OrElse(alternatives ...func(tm.Txn) error) error {
	wrapped := make([]func(tm.Txn) error, len(alternatives))
	for i, alt := range alternatives {
		alt := alt
		wrapped[i] = func(tm.Txn) error { return alt(x) }
	}
	return x.inner.OrElse(wrapped...)
}

func (x *tracedTxn) Retry()                          { x.inner.Retry() }
func (x *tracedTxn) Abort()                          { x.inner.Abort() }
func (x *tracedTxn) Exec(n uint64)                   { x.inner.Exec(n) }
func (x *tracedTxn) Alloc(size, align uint64) uint64 { return x.inner.Alloc(size, align) }
func (x *tracedTxn) StoreInit(addr, val uint64)      { x.inner.StoreInit(addr, val) }

// writeSpans writes every worker's spans as JSONL: one object per span
// with trace (request) id, span id, parent id, name, interval and counts.
func writeSpans(path string, perWorker [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for w, spans := range perWorker {
		for i := range spans {
			s := &spans[i]
			id, parent := s.req*64, "null"
			switch s.kind {
			case spanAtomic:
				id, parent = s.req*64+1, fmt.Sprint(s.req*64)
			case spanOp:
				id, parent = s.req*64+1+uint64(s.attempts), fmt.Sprint(s.req*64+1)
			}
			fmt.Fprintf(bw, `{"trace":%d,"span":%d,"parent":%s,"name":%q,"worker":%d,"start_ns":%d,"end_ns":%d,"attempts":%d,"loads":%d,"stores":%d,"writes":%t}`+"\n",
				s.req, id, parent, spanNames[s.kind], w, s.start, s.end, s.attempts, s.loads, s.stores, s.writes)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
