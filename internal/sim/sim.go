// Package sim provides the deterministic discrete-event simulation engine
// that underlies the machine model. It is the analog of the NWO simulator's
// core scheduler: a cycle-accurate event queue with a total ordering that
// makes every simulation run bit-for-bit reproducible.
//
// Determinism is the load-bearing property. The paper's methodology
// (Section 3) depends on NWO's "deterministic behavior and non-intrusive
// observation functions"; all controlled experiments in this repository
// assume that re-running a configuration yields the identical cycle count.
// The engine guarantees this by a total event order: first by cycle, then
// by an event key.
//
// Two keying disciplines exist:
//
//   - Unkeyed (At, After, AtCall, ...): the key is a per-engine sequence
//     number assigned at scheduling time, so same-cycle events fire in
//     scheduling order. The model checker's world is the one in-tree
//     user of this form; litmus runs go through machine.New and are
//     owned like every machine.
//   - Owned (OwnedAt, OwnedAtCall, ... after SetStreams): the key is
//     (owner, cnt) where owner is the model entity — here, the node — on
//     whose behalf the event is scheduled and cnt is drawn from the
//     owner's private counter stream. An owner's stream is consumed only
//     by that owner's own deterministic execution, so every event's key is
//     independent of how scheduling calls from different owners
//     interleave. The machine uses owned scheduling for every event; the
//     resulting tie-break is pinned by every exhibit golden.
//
// The queue is a timing wheel: one bucket per cycle for the next
// wheelSize cycles, each bucket a list kept in key order, plus a small
// heap for the rare event scheduled further out. The structure is an
// implementation detail; the contract is only that Step fires the pending
// event with the least (cycle, owner, cnt) key. Scheduling returns
// nothing: a scheduled event always fires.
package sim

import (
	"fmt"
	"math/bits"
	"sort"
)

// Cycle is a point in simulated time, measured in processor clock cycles.
// Alewife's clock runs at 33 MHz, so 33e6 cycles correspond to one second
// of simulated execution.
type Cycle uint64

// CyclesPerSecond is the Alewife node clock rate (33 MHz Sparcle).
const CyclesPerSecond = 33_000_000

// Seconds converts a cycle count to simulated seconds at the Alewife clock.
func (c Cycle) Seconds() float64 { return float64(c) / CyclesPerSecond }

// Event is a callback scheduled to run at a particular cycle.
type Event func()

// Caller is the allocation-free alternative to Event: a preallocated
// receiver whose Fire method runs when the event's cycle arrives. A hot
// caller keeps one Caller per logical operation (or a free list of them)
// and schedules it with AtCall; a pointer stores into the event without
// the closure allocation an Event capture costs, and without the boxing
// an interface conversion of a non-pointer would cost.
type Caller interface {
	// Fire runs the event's work when its cycle arrives.
	Fire()
}

// unkeyedOwner is the owner value for unkeyed events. It is the maximum
// int32, so unkeyed events sort after every owned event at the same cycle;
// among themselves they keep scheduling order via the engine sequence.
const unkeyedOwner = int32(^uint32(0) >> 1)

// wheelSize is the number of per-cycle buckets: an event scheduled less
// than wheelSize cycles ahead goes to a bucket, anything later to the
// overflow heap. 256 holds 98% of the delays that the quick exhibits and
// a 64-node WORKER run schedule (EXPERIMENTS.md, "Event core").
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// scheduledEvent is one pooled event slot. Slots live in Engine.slots and
// are linked by index: next threads a bucket's list, or the free list.
type scheduledEvent struct {
	at    Cycle
	cnt   uint64 // owner-stream position, or engine sequence when unkeyed
	owner int32  // key owner (node), or unkeyedOwner
	next  int32  // next slot in the same list; 0 ends it
	fire  Event  // closure form; nil when call is set
	call  Caller // receiver form; nil when fire is set
	tag   any    // optional inspection tag (see AtTagged)
}

// Engine is a discrete-event scheduler with deterministic tie-breaking.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Cycle
	seq     uint64
	fired   uint64
	pending int

	// slots is the event pool. Slot 0 is never used, so index 0 can end
	// a list; free heads the list of released slots.
	slots []scheduledEvent
	free  int32

	// bucket[at&wheelMask] heads the key-ordered list of the events due
	// at cycle at, for every at in [now, now+wheelSize); occupied has bit
	// b set exactly when bucket[b] is non-empty. Every pending event is
	// due at or after now, so one bucket never mixes two cycles.
	bucket   [wheelSize]int32
	occupied [wheelSize / 64]uint64

	// overflow is a binary min-heap, by full key, of the events that were
	// scheduled wheelSize or more cycles ahead. They stay there until they
	// fire; earliest compares its top against the first bucket.
	overflow []int32

	// streams holds the per-owner key counters for owned scheduling (see
	// the package comment). Nil until SetStreams; owned calls then fall
	// back to unkeyed scheduling.
	streams []uint64

	// Observer, when non-nil, is invoked after every dispatched event
	// with the clock and the number of events still pending. It feeds
	// the tracing subsystem's engine counters; it must not schedule
	// events. Nil (the default) costs one branch per Step.
	Observer func(now Cycle, pending int)
}

// NewEngine returns an empty engine positioned at cycle zero.
func NewEngine() *Engine {
	return &Engine{slots: make([]scheduledEvent, 1, 16)}
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired reports how many events have executed since construction.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// At schedules fn to run at the absolute cycle at. Scheduling in the past
// panics: it indicates a protocol bug, and silently reordering time would
// destroy the determinism guarantee.
func (e *Engine) At(at Cycle, fn Event) {
	e.AtTagged(at, nil, fn)
}

// AtTagged schedules fn like At and attaches an inspection tag to the
// pending event. Tags never affect execution; they exist so external
// observers (the model checker's state-fingerprint layer) can enumerate
// what is queued without being able to look inside the closures.
func (e *Engine) AtTagged(at Cycle, tag any, fn Event) {
	e.schedule(at, unkeyedOwner, e.seq, tag, fn, nil)
}

// AtCall schedules a preallocated Caller to fire at the absolute cycle
// at, with an inspection tag. It is the allocation-free scheduling path:
// the event slot comes from the engine's pool and the receiver is
// caller-owned, so steady-state scheduling allocates nothing.
func (e *Engine) AtCall(at Cycle, tag any, c Caller) {
	e.schedule(at, unkeyedOwner, e.seq, tag, nil, c)
}

// AfterCall schedules a Caller to fire delay cycles from now (see AtCall).
func (e *Engine) AfterCall(delay Cycle, tag any, c Caller) {
	e.AtCall(e.now+delay, tag, c)
}

// schedule takes a slot from the pool (growing it when none is free) and
// enqueues it under the given canonical key. Scheduling in the past
// panics: it indicates a protocol bug, and silently reordering time would
// destroy determinism.
func (e *Engine) schedule(at Cycle, owner int32, cnt uint64, tag any, fn Event, c Caller) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at cycle %d, now %d", at, e.now))
	}
	s := e.free
	if s != 0 {
		e.free = e.slots[s].next
	} else {
		s = int32(len(e.slots))
		e.slots = append(e.slots, scheduledEvent{})
	}
	ev := &e.slots[s]
	ev.at, ev.owner, ev.cnt, ev.tag, ev.fire, ev.call = at, owner, cnt, tag, fn, c
	e.seq++
	e.pending++
	if at-e.now >= wheelSize {
		e.pushOverflow(s)
		return
	}
	// Keep the bucket in key order. Its events share a cycle, so the key
	// is (owner, cnt); a new event usually sorts last.
	b := int(at & wheelMask)
	p := &e.bucket[b]
	for *p != 0 {
		q := &e.slots[*p]
		if q.owner > owner || (q.owner == owner && q.cnt > cnt) {
			break
		}
		p = &q.next
	}
	ev.next = *p
	*p = s
	e.occupied[b>>6] |= 1 << (b & 63)
}

// before reports whether slot a's event fires before slot b's: the
// engine's total order, by cycle, then owner, then count.
func (e *Engine) before(a, b int32) bool {
	x, y := &e.slots[a], &e.slots[b]
	if x.at != y.at {
		return x.at < y.at
	}
	if x.owner != y.owner {
		return x.owner < y.owner
	}
	return x.cnt < y.cnt
}

// pushOverflow adds slot s to the overflow heap.
func (e *Engine) pushOverflow(s int32) {
	h := append(e.overflow, s)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !e.before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.overflow = h
}

// popOverflow removes the overflow heap's top.
func (e *Engine) popOverflow() {
	h := e.overflow
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && e.before(h[c+1], h[c]) {
			c++
		}
		if !e.before(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.overflow = h
}

// firstBucket returns the first occupied bucket at least d cycles after
// now, or -1 when the wheel holds nothing that late. It reads the
// occupancy bitmap a word at a time, starting from now's bucket.
func (e *Engine) firstBucket(d uint) int {
	for d < wheelSize {
		pos := (uint(e.now) + d) & wheelMask
		if word := e.occupied[pos>>6] >> (pos & 63); word != 0 {
			tz := uint(bits.TrailingZeros64(word))
			if d+tz >= wheelSize {
				return -1 // wrapped back to buckets already passed
			}
			return int(pos + tz)
		}
		d += 64 - pos&63
	}
	return -1
}

// earliest locates the next event to fire: its slot, and the bucket
// whose list it heads, or -1 when it is the overflow heap's top. The slot
// is 0 when nothing is pending.
func (e *Engine) earliest() (int32, int) {
	b := e.firstBucket(0)
	if len(e.overflow) > 0 {
		if o := e.overflow[0]; b < 0 || e.before(o, e.bucket[b]) {
			return o, -1
		}
	}
	if b < 0 {
		return 0, -1
	}
	return e.bucket[b], b
}

// SetStreams installs the per-owner key counter streams, indexed by
// owner, switching the Owned scheduling calls from the unkeyed fallback
// to canonical (owner, cnt) keys.
func (e *Engine) SetStreams(streams []uint64) { e.streams = streams }

// ownedKey resolves the key for an owned scheduling call: the owner's
// next stream position, or the unkeyed fallback when no streams are
// installed (standalone engine users never install streams, and their
// owned calls then behave exactly like the unkeyed forms).
//
//swex:hotpath
func (e *Engine) ownedKey(owner int) (int32, uint64) {
	if e.streams == nil {
		return unkeyedOwner, e.seq
	}
	c := e.streams[owner]
	e.streams[owner]++
	return int32(owner), c
}

// OwnedAt schedules fn at the absolute cycle at with a canonical
// (owner, cnt) key drawn from owner's stream (see the package comment).
//
//swex:hotpath
func (e *Engine) OwnedAt(owner int, at Cycle, tag any, fn Event) {
	o, c := e.ownedKey(owner)
	e.schedule(at, o, c, tag, fn, nil)
}

// OwnedAfter schedules fn delay cycles from now with a canonical key (see
// OwnedAt).
//
//swex:hotpath
func (e *Engine) OwnedAfter(owner int, delay Cycle, tag any, fn Event) {
	e.OwnedAt(owner, e.now+delay, tag, fn)
}

// OwnedAtCall schedules a preallocated Caller at the absolute cycle at
// with a canonical key (see OwnedAt and AtCall).
//
//swex:hotpath
func (e *Engine) OwnedAtCall(owner int, at Cycle, tag any, c Caller) {
	o, cnt := e.ownedKey(owner)
	e.schedule(at, o, cnt, tag, nil, c)
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) {
	e.At(e.now+delay, fn)
}

// AfterTagged schedules fn to run delay cycles from now with a tag.
func (e *Engine) AfterTagged(delay Cycle, tag any, fn Event) {
	e.AtTagged(e.now+delay, tag, fn)
}

// TaggedEvent describes one pending event for inspection: its firing cycle
// and the tag it was scheduled with (nil for untagged events).
type TaggedEvent struct {
	// At is the cycle the event will fire.
	At Cycle
	// Tag is the caller-supplied inspection tag, nil if untagged.
	Tag any
}

// PendingTagged returns the pending events in firing order (cycle, then
// event key). The slice is a snapshot: mutating it does not
// affect the queue. The order is exactly the order Step would fire them if
// nothing else were scheduled, which is what makes it usable as part of a
// canonical machine-state fingerprint.
func (e *Engine) PendingTagged() []TaggedEvent {
	order := make([]int32, 0, e.pending)
	for b := e.firstBucket(0); b >= 0; b = e.firstBucket((uint(b)-uint(e.now))&wheelMask + 1) {
		for s := e.bucket[b]; s != 0; s = e.slots[s].next {
			order = append(order, s)
		}
	}
	if len(e.overflow) > 0 {
		order = append(order, e.overflow...)
		sort.Slice(order, func(i, j int) bool { return e.before(order[i], order[j]) })
	}
	out := make([]TaggedEvent, len(order))
	for i, s := range order {
		out[i] = TaggedEvent{At: e.slots[s].at, Tag: e.slots[s].tag}
	}
	return out
}

// AnyPending reports whether match(tag, key) holds for the tag of some
// pending tagged event of e. It visits the events in no particular order
// and allocates nothing: key carries the caller's query, so match can be
// a plain function rather than a capturing closure, and an invariant
// check can ask what is queued at every step.
func AnyPending[K any](e *Engine, key K, match func(tag any, key K) bool) bool {
	for i := 1; i < len(e.slots); i++ {
		// A free slot's tag is nil (fire clears the slot).
		if tag := e.slots[i].tag; tag != nil && match(tag, key) {
			return true
		}
	}
	return false
}

// NextTag returns the inspection tag of the event Step would fire next,
// without copying the queue; ok is false when nothing is pending.
func (e *Engine) NextTag() (tag any, ok bool) {
	s, _ := e.earliest()
	if s == 0 {
		return nil, false
	}
	return e.slots[s].tag, true
}

// Step fires the next event, advancing the clock to its cycle. It returns
// false if the queue is empty.
//
//swex:hotpath
func (e *Engine) Step() bool {
	s, b := e.earliest()
	if s == 0 {
		return false
	}
	e.fire(s, b)
	return true
}

// fire dequeues slot s (heading bucket b, or the overflow heap when b is
// -1), returns it to the pool and runs its event.
func (e *Engine) fire(s int32, b int) {
	ev := &e.slots[s]
	if b >= 0 {
		if e.bucket[b] = ev.next; ev.next == 0 {
			e.occupied[b>>6] &^= 1 << (b & 63)
		}
	} else {
		e.popOverflow()
	}
	e.pending--
	e.now = ev.at
	e.fired++
	fn, call := ev.fire, ev.call
	*ev = scheduledEvent{next: e.free}
	e.free = s
	if call != nil {
		call.Fire()
	} else {
		fn()
	}
	if e.Observer != nil {
		e.Observer(e.now, e.pending)
	}
}

// Run fires events until the queue drains or the clock passes limit.
// A limit of zero means no limit. It returns the cycle at which the engine
// stopped and whether the queue drained (as opposed to hitting the limit).
// Stopping at the limit moves the clock to it, never backwards.
//
//swex:hotpath
func (e *Engine) Run(limit Cycle) (Cycle, bool) {
	for {
		s, b := e.earliest()
		if s == 0 {
			return e.now, true
		}
		if limit != 0 && e.slots[s].at > limit {
			e.stopAt(limit)
			return e.now, false
		}
		e.fire(s, b)
	}
}

// stopAt advances the clock to a run's limit when no event is due by it.
func (e *Engine) stopAt(limit Cycle) {
	if limit > e.now {
		e.now = limit
	}
}

// RunUntil fires events while cond returns false, stopping as soon as cond
// is true (checked after each event) or the queue drains or the hard cycle
// limit is exceeded. It returns true if cond was satisfied.
func (e *Engine) RunUntil(cond func() bool, limit Cycle) bool {
	if cond() {
		return true
	}
	for {
		s, b := e.earliest()
		if s == 0 {
			return false
		}
		if limit != 0 && e.slots[s].at > limit {
			e.stopAt(limit)
			return false
		}
		e.fire(s, b)
		if cond() {
			return true
		}
	}
}
