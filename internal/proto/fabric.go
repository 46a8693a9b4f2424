package proto

import (
	"fmt"

	"swex/internal/mem"
	"swex/internal/memtier"
	"swex/internal/mesh"
	"swex/internal/sim"
	"swex/internal/stats"
	"swex/internal/trace"
)

// Fabric wires the per-node controllers to the shared machine resources:
// the event engine, the mesh network, the backing memory, the trap
// scheduler, and the protocol extension software. One Fabric underlies one
// simulated machine.
type Fabric struct {
	Engine *sim.Engine
	Net    *mesh.Network
	Mem    *mem.Memory
	Timing Timing
	Spec   Spec
	Traps  TrapScheduler
	Soft   Software
	// MigratoryDetect enables the migratory-data adaptation (paper
	// Section 7 "dynamic detection"): blocks observed to hop
	// read-modify-write between nodes are served with Exclusive grants
	// on reads, merging each hop's two transactions into one.
	MigratoryDetect bool
	// BatchReads enables the read-burst batching enhancement: read
	// requests arriving while a read-overflow handler runs are drained
	// by it at incremental cost instead of being busied. This is one of
	// the Section 7 "dynamic detection" style enhancements: it speeds
	// up widely-read, rarely-written data (WATER's molecule records) and
	// slows down frequently-written shared words (task-queue heads), so
	// it is off by default.
	BatchReads bool
	// Counts holds the machine-wide protocol event counts that no
	// controller keeps itself (traps are HomeCtl.Traps, BUSY retries
	// CacheCtl.Retries).
	Counts Counts
	// Sink, when set, receives structured span events for the tracing
	// subsystem (see internal/trace and sink.go). Nil disables tracing
	// at one branch per hook.
	Sink trace.Sink
	// Tier, when set, is the memory-hierarchy model behind the home
	// directories (internal/memtier): it prices every directory-side
	// block access in place of the flat Timing.MemLatency and makes
	// concurrent accesses queue on the home's tier link or memory
	// channel. Nil is the paper's flat machine at one branch per access.
	Tier *memtier.Model
	// Fault, when set, intercepts every message before it is injected
	// into the network; returning true silently drops it. It exists for
	// fault injection: the model checker's seeded-bug demos (a skipped
	// invalidation, a lost acknowledgment) are expressed as drop filters,
	// and the checker then finds the interleaving that turns the lost
	// message into an invariant violation. Dropped messages are counted
	// in Counts.Dropped. mc.Explain wraps the filter it finds here to
	// record each sent and dropped message for its counterexample
	// narrative.
	Fault func(Msg) bool

	homes      []*HomeCtl
	caches     []*CacheCtl
	checker    *Checker
	flightPool []*flight // delivered entries awaiting reuse
	txnSeq     uint64    // trace transaction ids (tracing enabled only)
	msgSeq     uint64    // trace message sequence numbers
}

// Counts is the fabric's set of run statistics, one field per fact.
type Counts struct {
	// Sent counts the messages injected into the network, by kind.
	Sent [numMsgKinds]uint64
	// Dropped counts messages the Fault filter discarded.
	Dropped uint64
	// Evictions counts valid cache lines displaced by a fill.
	Evictions uint64
	// BatchedReads counts read requests drained by a running handler.
	BatchedReads uint64
	// HWInvalidations and SWInvalidations count the INV messages sent by
	// hardware and by a software write handler.
	HWInvalidations, SWInvalidations uint64
	// CheckIns counts clean copies whose pointer a REL retired.
	CheckIns uint64
	// MigratoryReadGrants counts reads served with an Exclusive grant;
	// MigratoryPromotions and MigratoryDemotions count blocks entering
	// and leaving the migratory mode.
	MigratoryReadGrants, MigratoryPromotions, MigratoryDemotions uint64
}

// flight is one in-flight message: the delivery event's inspection tag
// and its delivery receiver (sim.Caller), so the engine queue is the one
// record of what is on the wire. Entries are pooled on the owning Fabric:
// a delivered flight returns to flightPool, so the steady-state send path
// allocates nothing.
type flight struct {
	f *Fabric
	m Msg
}

// Fire returns the entry to the pool and hands the message to the
// destination controller. The pool return happens before Deliver so
// nested sends can reuse the slot.
func (fl *flight) Fire() {
	f, m := fl.f, fl.m
	f.flightPool = append(f.flightPool, fl)
	if m.Kind.ToHome() {
		f.homes[m.Dst].Deliver(m)
	} else {
		f.caches[m.Dst].Deliver(m)
	}
}

// blockTag is the inspection tag for scheduled protocol work that is not
// an in-flight message: handler completions, queued home processing,
// watch re-arms, and instruction fills. It carries the rendered label the
// snapshot layer encodes plus the block the work targets, so the model
// checker's partial-order reduction can ask which block the next pending
// event touches (Fabric.NextEventBlock) without parsing labels.
type blockTag struct {
	label string
	b     mem.Block
}

// procTag is the inspection tag for a message queued at a busy home for
// hardware processing. It carries the message itself rather than a
// pre-rendered label: the snapshot layer must encode the message's epoch
// relative to the directory entry's current epoch (exactly as it does
// for in-flight messages), and a label rendered at scheduling time would
// bake in the absolute epoch — a history artifact that would split
// logically identical states.
//
// Like flight, the tag doubles as the event's delivery receiver
// (sim.Caller) and is pooled on the owning HomeCtl, so queueing a message
// for hardware processing allocates nothing in steady state.
type procTag struct {
	h    *HomeCtl
	node mem.NodeID
	m    Msg
}

// Fire processes the queued message, returning the tag to its
// controller's pool first so nested deliveries can reuse the slot.
func (t *procTag) Fire() {
	h, m := t.h, t.m
	h.jobPool = append(h.jobPool, t)
	h.process(m)
}

// NewFabric builds the fabric and both controllers for every node.
// Software may be nil only for the full-map protocol.
func NewFabric(engine *sim.Engine, net *mesh.Network, memory *mem.Memory,
	spec Spec, timing Timing, traps TrapScheduler, soft Software,
	cacheCfg CacheConfig) (*Fabric, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := net.Nodes()
	if memory.Nodes() != n {
		return nil, fmt.Errorf("proto: memory has %d nodes, network %d", memory.Nodes(), n)
	}
	if soft == nil && spec.UsesSoftware() {
		return nil, fmt.Errorf("proto: %s requires protocol extension software", spec.Name)
	}
	f := &Fabric{
		Engine: engine,
		Net:    net,
		Mem:    memory,
		Timing: timing,
		Spec:   spec,
		Traps:  traps,
		Soft:   soft,
	}
	f.homes = make([]*HomeCtl, n)
	f.caches = make([]*CacheCtl, n)
	for i := 0; i < n; i++ {
		f.homes[i] = newHomeCtl(f, mem.NodeID(i))
		f.caches[i] = newCacheCtl(f, mem.NodeID(i), cacheCfg)
	}
	return f, nil
}

// Nodes reports the machine size.
func (f *Fabric) Nodes() int { return len(f.homes) }

// Home returns node id's home-side controller.
func (f *Fabric) Home(id mem.NodeID) *HomeCtl { return f.homes[id] }

// Cache returns node id's cache-side controller.
func (f *Fabric) Cache(id mem.NodeID) *CacheCtl { return f.caches[id] }

// Send injects a protocol message into the network and delivers it to the
// destination controller when it arrives.
//
//swex:hotpath
func (f *Fabric) Send(m Msg) { f.SendDelayed(m, 0) }

// SendDelayed injects a message whose contents take extra cycles to
// produce (a DRAM read feeding a data reply). The message claims its
// place in the network queues immediately, so per-destination delivery
// order always follows call order — the invariant the protocol's
// data-before-invalidation races rely on.
//
//swex:hotpath
func (f *Fabric) SendDelayed(m Msg, extra sim.Cycle) {
	if f.Fault != nil && f.Fault(m) {
		f.Counts.Dropped++
		return
	}
	f.Counts.Sent[m.Kind]++
	var fl *flight
	if n := len(f.flightPool); n > 0 {
		fl = f.flightPool[n-1]
		f.flightPool[n-1] = nil
		f.flightPool = f.flightPool[:n-1]
	} else {
		fl = &flight{f: f}
	}
	fl.m = m
	f.Net.SendCall(int(m.Src), int(m.Dst), f.Timing.Flits(m.Kind), extra, fl, fl)
}

// invInFlight reports whether an invalidation for block b is on the wire
// toward node id. A cached copy is legitimately untracked exactly while
// its invalidation races toward it (see AgreementViolation).
func (f *Fabric) invInFlight(b mem.Block, id mem.NodeID) bool {
	return sim.AnyPending(f.Engine, invKey{b, id}, isInvFlight)
}

// invKey names the invalidations invInFlight looks for.
type invKey struct {
	b   mem.Block
	dst mem.NodeID
}

// isInvFlight reports whether tag is an in-flight invalidation of k.b
// addressed to k.dst.
func isInvFlight(tag any, k invKey) bool {
	fl, ok := tag.(*flight)
	return ok && fl.m.Kind == MsgINV && fl.m.Block == k.b && fl.m.Dst == k.dst
}

// WorkerSetHist builds the Figure 6 histogram: for every block any home
// directory tracked, the largest simultaneous worker set it reached.
func (f *Fabric) WorkerSetHist() *stats.Hist {
	h := stats.NewHist()
	for _, hc := range f.homes {
		hc.forEachEntry(func(b mem.Block, max int) {
			if max > 0 {
				h.Add(max)
			}
		})
	}
	return h
}
