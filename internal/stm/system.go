package stm

import (
	"hastm.dev/hastm/internal/mem"
	"hastm.dev/hastm/internal/sim"
	"hastm.dev/hastm/internal/tm"
)

// System is a software TM instantiated on a machine: the shared engine
// plus the versioning policy its constructor chose. The zero Accel
// factory gives the base STM of §4; package core supplies the HASTM
// factory.
type System struct {
	name    string
	status  string // watchdog status label of a revocable attempt
	machine *sim.Machine
	cfg     tm.Config
	table   *RecordTable

	// newPolicy builds a thread's versioning policy inside the thread's
	// setup step, so a policy can reserve its own logs in simulated memory.
	newPolicy func(t *Thread, m *mem.Memory) policy
}

var _ tm.System = (*System)(nil)

// New creates the base STM on machine.
func New(machine *sim.Machine, cfg tm.Config) *System {
	return NewWithAccel("stm", machine, cfg, nil)
}

// NewWithAccel creates a software TM whose threads are accelerated by the
// Accel returned by factory (nil factory = base STM). This is the seam the
// HASTM implementation plugs into.
func NewWithAccel(name string, machine *sim.Machine, cfg tm.Config, factory func(*Thread) Accel) *System {
	return NewWithTable(name, machine, cfg, factory, NewRecordTable(machine.Mem))
}

// NewWithTable is NewWithAccel with an externally owned record table, so a
// hybrid scheme's hardware path and its software fallback can detect
// conflicts against the same records. When the escalation ladder is
// enabled (Progress.RetryBudget > 0) and no token was supplied, one is
// allocated here; schemes sharing a record table should also share a token
// (pass it in Config.Progress.Token).
func NewWithTable(name string, machine *sim.Machine, cfg tm.Config, factory func(*Thread) Accel, table *RecordTable) *System {
	s := newSystem(name, machine, cfg)
	s.status = "stm"
	s.table = table
	s.newPolicy = func(t *Thread, m *mem.Memory) policy { return newEager(t, m, factory) }
	return s
}

// NewLazy creates the deferred-update STM ("lazy"): stores go to a
// per-transaction write buffer and reach memory only inside a sandboxed
// commit.
func NewLazy(machine *sim.Machine, cfg tm.Config) *System {
	s := newSystem("lazy", machine, cfg)
	s.table = NewRecordTable(machine.Mem)
	s.newPolicy = func(t *Thread, _ *mem.Memory) policy { return newDeferred(t) }
	return s
}

// NewMVCC creates the multi-version variant ("mvcc"): lazy writers plus a
// commit clock and per-location version history giving read-only
// transactions an abort-free snapshot read path.
func NewMVCC(machine *sim.Machine, cfg tm.Config) *System {
	s := newSystem("mvcc", machine, cfg)
	s.table = NewRecordTable(machine.Mem)
	vs := newVersionStore(machine.Mem)
	s.newPolicy = func(t *Thread, _ *mem.Memory) policy { return &mvcc{deferred: *newDeferred(t), vs: vs} }
	return s
}

// newSystem builds the policy-independent part of a System, allocating
// the ladder's token when the ladder is enabled and none was supplied.
func newSystem(name string, machine *sim.Machine, cfg tm.Config) *System {
	if cfg.Progress.RetryBudget > 0 && cfg.Progress.Token == nil {
		cfg.Progress.Token = tm.NewIrrevocableToken(machine.Mem, machine.Config().Cores)
	}
	return &System{name: name, status: name, machine: machine, cfg: cfg}
}

// Progress returns the resolved progress configuration (including the
// allocated token), so a hybrid scheme's hardware half can share it.
func (s *System) Progress() tm.Progress { return s.cfg.Progress }

// Name identifies the scheme.
func (s *System) Name() string { return s.name }

// Table returns the global transaction-record table.
func (s *System) Table() *RecordTable { return s.table }

// Machine returns the machine this system runs on.
func (s *System) Machine() *sim.Machine { return s.machine }

// Thread binds the STM to one core. The descriptor, TLS slot and the
// transaction logs are allocated in simulated memory so that logging has
// real cache cost — log stores can evict marked lines, one of the effects
// HASTM's aggressive mode removes.
func (s *System) Thread(ctx *sim.Ctx) tm.Thread {
	t := &Thread{
		sys:     s,
		ctx:     ctx,
		backoff: tm.NewBackoff(ctx.ID()),
		ladder:  tm.NewBackoff(ctx.ID()),
		fsm:     tm.AttemptFSM{RetryBudget: s.cfg.Progress.RetryBudget},
	}
	// The allocator is shared machine state: reserve the thread's
	// descriptor and logs inside one architectural step so concurrent
	// thread creation stays deterministic and race-free.
	ctx.Step(func(m *sim.Machine) uint64 {
		t.desc = m.Mem.Alloc(descSize, mem.LineSize)
		t.tls = m.Mem.Alloc(mem.LineSize, mem.LineSize)
		t.rdLog = m.Mem.Alloc(logCap*entryBytes, mem.LineSize)
		t.wrLog = m.Mem.Alloc(logCap*entryBytes, mem.LineSize)
		t.pol = s.newPolicy(t, m.Mem)
		m.Mem.Store(t.tls, t.desc)
		return 16
	})
	return t
}
