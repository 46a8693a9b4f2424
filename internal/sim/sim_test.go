package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine at cycle %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine has %d pending events, want 0", e.Pending())
	}
}

func TestEngineFiresInCycleOrder(t *testing.T) {
	e := NewEngine()
	var order []Cycle
	for _, c := range []Cycle{30, 10, 20} {
		c := c
		e.At(c, func() { order = append(order, c) })
	}
	e.Run(0)
	want := []Cycle{10, 20, 30}
	for i, c := range want {
		if order[i] != c {
			t.Fatalf("event %d fired for cycle %d, want %d", i, order[i], c)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("engine at cycle %d after run, want 30", e.Now())
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of scheduling order: pos %d got %d", i, v)
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Cycle
	e.At(100, func() {
		e.After(7, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 107 {
		t.Fatalf("After(7) from cycle 100 fired at %d, want 107", at)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(0)
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Cycle(i*10), func() { count++ })
	}
	now, drained := e.Run(55)
	if drained {
		t.Fatal("Run reported drained with events pending")
	}
	if now != 55 {
		t.Fatalf("Run stopped at cycle %d, want 55", now)
	}
	if count != 5 {
		t.Fatalf("fired %d events before limit, want 5", count)
	}
	now, drained = e.Run(0)
	if !drained || now != 100 {
		t.Fatalf("final Run got (%d,%v), want (100,true)", now, drained)
	}
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Cycle(i), func() { count++ })
	}
	ok := e.RunUntil(func() bool { return count == 3 }, 0)
	if !ok {
		t.Fatal("RunUntil did not report condition satisfied")
	}
	if count != 3 {
		t.Fatalf("RunUntil fired %d events, want 3", count)
	}
	if e.Now() != 3 {
		t.Fatalf("engine at %d, want 3", e.Now())
	}
	ok = e.RunUntil(func() bool { return count == 100 }, 0)
	if ok {
		t.Fatal("RunUntil reported success for unreachable condition")
	}
	if count != 10 {
		t.Fatalf("queue should have drained; fired %d", count)
	}
}

func TestEngineFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Cycle(i), func() {})
	}
	e.Run(0)
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	depth := 0
	var grow func()
	grow = func() {
		depth++
		if depth < 50 {
			e.After(1, grow)
		}
	}
	e.At(0, grow)
	e.Run(0)
	if depth != 50 {
		t.Fatalf("chained scheduling reached depth %d, want 50", depth)
	}
	if e.Now() != 49 {
		t.Fatalf("engine at %d, want 49", e.Now())
	}
}

// TestAnyPending checks the pending-tag walk: it sees tagged events in
// the wheel and the overflow heap, never untagged ones, and forgets an
// event once it fires.
func TestAnyPending(t *testing.T) {
	e := NewEngine()
	e.AtTagged(1, "near", func() {})
	e.AtTagged(3*wheelSize, "far", func() {})
	e.At(2, func() {})
	is := func(tag any, want string) bool { return tag == want }
	for _, want := range []string{"near", "far"} {
		if !AnyPending(e, want, is) {
			t.Fatalf("%q not found while pending", want)
		}
	}
	AnyPending(e, "", func(tag any, _ string) bool {
		if tag == nil {
			t.Fatal("match saw an untagged event")
		}
		return false
	})
	e.Step()
	if AnyPending(e, "near", is) {
		t.Fatal("fired event still reported pending")
	}
	if !AnyPending(e, "far", is) {
		t.Fatal("overflow event lost")
	}
}

func TestServerNoContention(t *testing.T) {
	var s Server
	start := s.Reserve(100, 10)
	if start != 100 {
		t.Fatalf("idle server started job at %d, want 100", start)
	}
	if s.FreeAt() != 110 {
		t.Fatalf("server free at %d, want 110", s.FreeAt())
	}
}

func TestServerSerializes(t *testing.T) {
	var s Server
	s.Reserve(100, 10)
	start := s.Reserve(100, 5)
	if start != 110 {
		t.Fatalf("second job started at %d, want 110 (after first)", start)
	}
	if s.Waited != 10 {
		t.Fatalf("waited %d, want 10", s.Waited)
	}
	start = s.Reserve(200, 5)
	if start != 200 {
		t.Fatalf("late job started at %d, want 200", start)
	}
}

func TestServerStats(t *testing.T) {
	var s Server
	s.Reserve(0, 10)
	s.Reserve(0, 10)
	s.Reserve(0, 10)
	if s.Jobs != 3 {
		t.Fatalf("Jobs = %d, want 3", s.Jobs)
	}
	if s.Busy != 30 {
		t.Fatalf("Busy = %d, want 30", s.Busy)
	}
	if s.Waited != 10+20 {
		t.Fatalf("Waited = %d, want 30", s.Waited)
	}
	s.Reset()
	if s.Jobs != 0 || s.Busy != 0 || s.FreeAt() != 0 {
		t.Fatal("Reset did not clear server")
	}
}

// Property: service start times are monotone in reservation order and never
// precede arrival; busy time equals the sum of durations.
func TestServerPropertyMonotone(t *testing.T) {
	f := func(arrivals []uint16, durs []uint8) bool {
		var s Server
		var prevStart Cycle
		var sum Cycle
		now := Cycle(0)
		for i, a := range arrivals {
			now += Cycle(a % 100)
			d := Cycle(1)
			if i < len(durs) {
				d = Cycle(durs[i]%20) + 1
			}
			start := s.Reserve(now, d)
			if start < now || start < prevStart {
				return false
			}
			prevStart = start
			sum += d
		}
		return s.Busy == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine fires events in nondecreasing cycle order regardless
// of scheduling order.
func TestEnginePropertyOrdered(t *testing.T) {
	f := func(cycles []uint16) bool {
		e := NewEngine()
		var fired []Cycle
		for _, c := range cycles {
			c := Cycle(c)
			e.At(c, func() { fired = append(fired, c) })
		}
		e.Run(0)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(cycles)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) over 10k draws hit %d distinct values, want 10", len(seen))
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm(20) = %v is not a permutation", p)
		}
		seen[v] = true
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestCycleSeconds(t *testing.T) {
	if got := Cycle(33_000_000).Seconds(); got != 1.0 {
		t.Fatalf("33M cycles = %v seconds, want 1.0", got)
	}
}

// TestOwnedKeysMatchAcrossEngines pins the owned keying discipline: with a
// stream slice installed, the key an event gets depends only on its owner
// and how many events that owner has scheduled, so same-cycle events fire
// in owner order whatever order the owners scheduled them in.
func TestOwnedKeysMatchAcrossEngines(t *testing.T) {
	record := func(schedule func(e *Engine, owner int, fired *[]int32)) []int32 {
		var fired []int32
		streams := make([]uint64, 2)
		e := NewEngine()
		e.SetStreams(streams)
		schedule(e, 0, &fired)
		schedule(e, 1, &fired)
		e.Run(0)
		return fired
	}
	sched := func(e *Engine, owner int, fired *[]int32) {
		for i := 0; i < 3; i++ {
			e.OwnedAt(owner, Cycle(10+i), nil, func() {
				*fired = append(*fired, int32(owner))
			})
		}
	}
	serial := record(sched)
	want := []int32{0, 1, 0, 1, 0, 1} // per cycle: owner 0's event before owner 1's
	if len(serial) != len(want) {
		t.Fatalf("fired %d events, want %d", len(serial), len(want))
	}
	for i := range want {
		if serial[i] != want[i] {
			t.Fatalf("serial firing owners = %v, want %v", serial, want)
		}
	}
}

// refKey is one scheduled event as the differential test's reference
// sees it: the engine's total-order key plus the event's identity.
type refKey struct {
	at    Cycle
	owner int32
	cnt   uint64
	id    int
}

func (a refKey) less(b refKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.cnt < b.cnt
}

// diffHarness schedules random events on an engine and keeps the
// reference: every pending key, from which the minimum must fire next.
type diffHarness struct {
	t       *testing.T
	e       *Engine
	rnd     *Rand
	streams []uint64 // the engine's key streams
	own     []uint64 // the reference's copy of the streams
	seq     uint64   // scheduling calls so far: the unkeyed count
	pending []refKey
	nextID  int
	budget  int // events still to schedule
}

// refCaller fires event id through the Caller scheduling path.
type refCaller struct {
	h  *diffHarness
	id int
}

func (c *refCaller) Fire() { c.h.fire(c.id) }

// schedule adds one event at a random delay: zero, short, within the
// wheel, or several wheel lengths out; owned (closure or Caller) or
// unkeyed.
func (h *diffHarness) schedule() {
	id := h.nextID
	h.nextID++
	h.budget--
	var delay Cycle
	switch h.rnd.Intn(4) {
	case 0:
	case 1:
		delay = Cycle(h.rnd.Intn(8))
	case 2:
		delay = Cycle(h.rnd.Intn(wheelSize))
	default:
		delay = Cycle(h.rnd.Intn(4 * wheelSize))
	}
	at := h.e.Now() + delay
	k := refKey{at: at, id: id}
	if owner := h.rnd.Intn(len(h.own) + 1); owner < len(h.own) {
		k.owner, k.cnt = int32(owner), h.own[owner]
		h.own[owner]++
		if h.rnd.Intn(2) == 0 {
			h.e.OwnedAt(owner, at, id, func() { h.fire(id) })
		} else {
			h.e.OwnedAtCall(owner, at, id, &refCaller{h, id})
		}
	} else {
		k.owner, k.cnt = unkeyedOwner, h.seq
		h.e.AtTagged(at, id, func() { h.fire(id) })
	}
	h.seq++
	h.pending = append(h.pending, k)
}

// fire checks that event id is the reference's minimum, due now, and
// schedules up to two more events from inside it (zero-delay ones land
// in the cycle being fired).
func (h *diffHarness) fire(id int) {
	min := 0
	for i, k := range h.pending {
		if k.less(h.pending[min]) {
			min = i
		}
	}
	want := h.pending[min]
	if want.id != id || want.at != h.e.Now() {
		h.t.Fatalf("fired event %d at cycle %d, reference wants event %d at %d", id, h.e.Now(), want.id, want.at)
	}
	h.pending = append(h.pending[:min], h.pending[min+1:]...)
	for n := h.rnd.Intn(3); n > 0 && h.budget > 0; n-- {
		h.schedule()
	}
}

// sorted returns the reference's pending keys in firing order.
func (h *diffHarness) sorted() []refKey {
	out := append([]refKey(nil), h.pending...)
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// checkPending compares PendingTagged and NextTag with the reference.
func (h *diffHarness) checkPending() {
	want := h.sorted()
	got := h.e.PendingTagged()
	if len(got) != len(want) || h.e.Pending() != len(want) {
		h.t.Fatalf("PendingTagged has %d events, Pending %d, reference %d", len(got), h.e.Pending(), len(want))
	}
	for i := range want {
		if got[i].At != want[i].at || got[i].Tag != want[i].id {
			h.t.Fatalf("PendingTagged[%d] = (%d, %v), reference (%d, %d)", i, got[i].At, got[i].Tag, want[i].at, want[i].id)
		}
	}
	tag, ok := h.e.NextTag()
	if ok != (len(want) > 0) || (ok && tag != want[0].id) {
		h.t.Fatalf("NextTag = (%v, %v), reference first %v", tag, ok, want)
	}
}

// TestEngineMatchesReference is the differential test of the event
// queue: seeded random schedules, driven by Step and by Run with limits
// that stop mid-queue, must fire in exactly the order of a reference that
// sorts every scheduled key by (cycle, owner, cnt). Delays reach several
// wheel lengths, so events take the overflow heap and the wheel wraps
// many times; PendingTagged is compared at every stop.
func TestEngineMatchesReference(t *testing.T) {
	overflowed := false
	for seed := uint64(1); seed <= 20; seed++ {
		e := NewEngine()
		h := &diffHarness{t: t, e: e, rnd: NewRand(seed), budget: 3000}
		h.streams, h.own = make([]uint64, 4), make([]uint64, 4)
		e.SetStreams(h.streams)
		for i := 0; i < 40; i++ {
			h.schedule()
		}
		for e.Pending() > 0 {
			h.checkPending()
			overflowed = overflowed || len(e.overflow) > 0
			if h.rnd.Intn(4) == 0 {
				e.Step()
				continue
			}
			limit := e.Now() + Cycle(h.rnd.Intn(2*wheelSize))
			now, drained := e.Run(limit)
			if drained != (len(h.pending) == 0) {
				t.Fatalf("seed %d: Run(%d) drained=%v with %d reference events pending", seed, limit, drained, len(h.pending))
			}
			if !drained {
				if now != limit || e.Now() != limit {
					t.Fatalf("seed %d: Run(%d) stopped at %d", seed, limit, now)
				}
				if first := h.sorted()[0]; first.at <= limit {
					t.Fatalf("seed %d: Run(%d) left event %d due at %d", seed, limit, first.id, first.at)
				}
			}
		}
		if len(h.pending) != 0 || e.Fired() != uint64(h.nextID) {
			t.Fatalf("seed %d: fired %d of %d events, %d left in the reference", seed, e.Fired(), h.nextID, len(h.pending))
		}
		if e.Now() < 4*wheelSize {
			t.Fatalf("seed %d: clock reached only %d, the wheel never wrapped", seed, e.Now())
		}
	}
	if !overflowed {
		t.Fatal("no event ever took the overflow heap")
	}
}
