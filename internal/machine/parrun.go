package machine

import (
	"fmt"

	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/sim"
)

// This file drives the conservative parallel mode (Config.SimWorkers > 1):
// nodes are sharded across per-shard engines, windows of the mesh
// lookahead run on a sim.Cluster worker pool, and every barrier merges the
// shards' staged cross-shard work in the canonical event order that keeps
// the run byte-identical to serial (DESIGN.md §14).

// forcedLookahead, when positive, overrides the mesh lookahead. It exists
// only for the negative test fixture: an oversized lookahead lets shards
// run past cycles at which cross-shard messages should have arrived, and
// the byte-identity suite must catch the resulting divergence.
var forcedLookahead sim.Cycle

// ForceLookaheadForTest overrides the parallel window width, returning a
// restore function. Test-only: a lookahead wider than the mesh's minimum
// message latency is unsound by construction (see mesh.Lookahead) and
// deliberately breaks serial equivalence.
func ForceLookaheadForTest(l sim.Cycle) (restore func()) {
	prev := forcedLookahead
	forcedLookahead = l
	return func() { forcedLookahead = prev }
}

// parRun is the machine's parallel-mode state.
type parRun struct {
	m         *Machine
	engines   []*sim.Engine
	shardOf   []int32
	lo, hi    []int // shard s owns nodes [lo[s], hi[s])
	lookahead sim.Cycle

	// Finish bookkeeping, written by the owning shard's worker (the
	// fabric's ThreadDone hook fires on-shard) and read by the master at
	// barriers; the cluster's barrier happens-before publishes it. When a
	// shard's last thread retires, done records the position of the
	// retiring event in the canonical event order. The globally last
	// retirement — the maximum done across shards — is exactly where the
	// serial engine would have stopped, and serves as the finish cut.
	remaining []int
	done      []sim.Cut
}

// enableParallel builds the shard decomposition and wires the parallel
// hooks into every layer. Called from New; the machine must not have
// simulated anything yet.
func (m *Machine) enableParallel(workers int) error {
	s := workers
	if s > m.Cfg.Nodes {
		s = m.Cfg.Nodes
	}
	l := m.Net.Lookahead()
	if forcedLookahead > 0 {
		l = forcedLookahead
	}
	if l < 1 {
		return fmt.Errorf("machine: network lookahead is zero; conservative windows cannot make progress")
	}
	p := &parRun{
		m:         m,
		engines:   make([]*sim.Engine, s),
		shardOf:   make([]int32, m.Cfg.Nodes),
		lo:        make([]int, s),
		hi:        make([]int, s),
		lookahead: l,
		remaining: make([]int, s),
		done:      make([]sim.Cut, s),
	}
	// Contiguous, near-equal node ranges. The decomposition affects only
	// which worker runs which node: every event is keyed by its owning
	// node (sim.Engine.OwnedAt and friends), so the merged event order is
	// the same at every worker count.
	base, rem := m.Cfg.Nodes/s, m.Cfg.Nodes%s
	node := 0
	for i := 0; i < s; i++ {
		p.lo[i] = node
		node += base
		if i < rem {
			node++
		}
		p.hi[i] = node
		for n := p.lo[i]; n < p.hi[i]; n++ {
			p.shardOf[n] = int32(i)
		}
		p.engines[i] = sim.NewEngine()
	}
	// All shard engines share one key-counter slice, exactly as the
	// single serial engine would: each shard consumes only the streams of
	// nodes whose code runs on it.
	streams := make([]uint64, m.Cfg.Nodes)
	for _, e := range p.engines {
		e.SetStreams(streams)
	}
	key := func(n mem.NodeID) (sim.Cycle, int32, uint64) {
		e := p.engines[p.shardOf[n]]
		o, c := e.CurKey()
		return e.Now(), o, c
	}
	m.Fabric.EnableParallel(p.engines, p.shardOf, p.onThreadDone)
	m.Traps.EnableParallel(
		func(n mem.NodeID) sim.Cycle { return p.engines[p.shardOf[n]].Now() },
		m.Fabric.StatAddCycle,
	)
	if m.Soft != nil {
		m.Soft.EnableParallel(key)
	}
	if m.Fabric.Tier != nil {
		m.Fabric.Tier.EnableParallel(func(n mem.NodeID) sim.Cycle {
			return p.engines[p.shardOf[n]].Now()
		})
	}
	m.par = p
	return nil
}

// onThreadDone is the fabric's thread-retirement hook: it runs on the
// retiring node's shard, inside the retiring event.
func (p *parRun) onThreadDone(n mem.NodeID) {
	s := p.shardOf[n]
	p.remaining[s]--
	if p.remaining[s] == 0 {
		e := p.engines[s]
		o, c := e.CurKey()
		p.done[s] = sim.Cut{At: e.Now(), Owner: o, Cnt: c}
	}
}

// runParallel is Run's window loop. Windows start at the globally
// earliest pending event — a global property, so window boundaries (and
// with them every barrier decision) are identical at every worker count —
// and span one lookahead.
func (m *Machine) runParallel(program func(*proc.Env), limit sim.Cycle) (Result, error) {
	p := m.par
	threads := m.Cfg.ThreadsPerNode
	if threads < 1 {
		threads = 1
	}
	for _, n := range m.Nodes {
		n.StartThreads(threads, program)
	}
	for s := range p.remaining {
		p.remaining[s] = (p.hi[s] - p.lo[s]) * threads
	}
	// The software stage's prepare sweeps every home of the shard, so it
	// runs on a countdown: one call buys softPrepareBatch events of
	// headroom (one event records into at most one home), keeping the
	// sweep off the per-event cost. The fabric's prepare is O(1) and runs
	// every event.
	const softPrepareBatch = 64
	countdown := make([]int, len(p.engines))
	prepare := make([]func(), len(p.engines))
	for s := range prepare {
		s := s
		lo, hi := p.lo[s], p.hi[s]
		prepare[s] = func() {
			m.Fabric.PrepareShard(s)
			if m.Soft != nil {
				if countdown[s] > 0 {
					countdown[s]--
					return
				}
				m.Soft.PrepareShard(lo, hi, softPrepareBatch)
				countdown[s] = softPrepareBatch - 1
			}
		}
	}
	cluster := sim.NewCluster(p.engines, prepare)
	defer cluster.Stop()

	allDone := func() bool {
		for _, r := range p.remaining {
			if r != 0 {
				return false
			}
		}
		return true
	}
	for {
		at, ok := cluster.NextAt()
		if !ok || (limit != 0 && at > limit) {
			return Result{}, m.parStuck(cluster, limit, ok)
		}
		cluster.RunWindow(at + p.lookahead)
		// Barrier: all shards quiescent, their staged work published.
		if allDone() {
			m.finishMerge()
			return m.result(), nil
		}
		// Every thread still alive retires at or after the next window,
		// so nothing staged so far is overrun: apply and flush in full.
		for s := range p.engines {
			m.Fabric.ApplyJournal(s, sim.MaxCut)
		}
		m.Fabric.FlushStagedSends(sim.MaxCut)
	}
}

// parStuck stops the unfinished threads and builds the deadlock/limit
// error, mirroring the serial path's.
func (m *Machine) parStuck(cluster *sim.Cluster, limit sim.Cycle, pendingWork bool) error {
	stuck := m.stopThreads()
	now := limit
	if !pendingWork {
		now = 0
		for _, e := range m.par.engines {
			if e.Now() > now {
				now = e.Now()
			}
		}
	}
	return fmt.Errorf("machine: run did not complete at cycle %d (stuck nodes: %v, pending events: %d)",
		now, stuck, cluster.Pending())
}

// finishMerge is the final barrier. The serial engine stops dead at the
// event in which the last thread retires; the shards instead ran their
// final window to its end, firing overrun events the serial engine never
// would have. Every staged effect is stamped with its issuing event's
// position in the canonical order, so the cut at the globally last
// retirement — the maximum of the per-shard retirement positions — applies
// exactly the staged work the serial engine performed and discards the
// rest (DESIGN.md §14).
func (m *Machine) finishMerge() {
	p := m.par
	cut := p.done[0]
	for _, d := range p.done[1:] {
		if sim.KeyLess(cut.At, cut.Owner, cut.Cnt, d.At, d.Owner, d.Cnt) {
			cut = d
		}
	}
	for s := range p.engines {
		m.Fabric.ApplyJournal(s, cut)
	}
	m.Fabric.FlushStagedSends(cut)
	if m.Soft != nil {
		m.Soft.DrainStaged(cut)
	}
}
