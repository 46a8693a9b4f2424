// The allocs-per-op ratchet: steady-state event scheduling must stay
// allocation-free. The hotalloc analyzer proves the *sites* are gone
// statically; this test proves the *runtime* behavior, so a regression
// that sneaks past the call graph (say, an interface box the analyzer
// mismodels) still fails go test. Excluded under the race detector, whose
// instrumentation allocates on its own account.
//
//go:build !race

package sim

import "testing"

// allocCeiling is the committed ratchet: average heap allocations per
// scheduled-and-fired event in steady state. The event pool and the
// Caller scheduling path make this exactly zero; raising it requires
// editing this constant in a reviewed change.
const allocCeiling = 0

type nopCaller struct{ fired int }

func (c *nopCaller) Fire() { c.fired++ }

func nop() {}

// TestSteadyStateSchedulingAllocs drives a small fixed workload — two
// pooled-Caller events, one plain func event, and one event far enough
// ahead to take the overflow heap — through the engine after a warm-up
// pass, and requires the average allocation count per workload to stay
// at the committed ceiling.
func TestSteadyStateSchedulingAllocs(t *testing.T) {
	e := NewEngine()
	c := &nopCaller{}
	workload := func() {
		e.AtCall(e.Now(), nil, c)
		e.AfterCall(1, nil, c)
		e.At(e.Now(), nop)
		e.After(3*wheelSize, nop)
		if _, drained := e.Run(0); !drained {
			t.Fatal("queue did not drain")
		}
	}
	// Warm-up: populate the event pool and the overflow heap's backing
	// array so the measured runs exercise steady state, not first-touch
	// growth.
	workload()
	if avg := testing.AllocsPerRun(200, workload); avg > allocCeiling {
		t.Errorf("steady-state scheduling allocates %.2f per workload, ceiling %d", avg, allocCeiling)
	}
	if c.fired == 0 {
		t.Fatal("caller never fired")
	}
}

// TestAnyPendingAllocs pins the pending-tag walk at zero allocations: the
// protocol checker runs it for every untracked cached copy at every
// checked state, with a struct key and a plain match function.
func TestAnyPendingAllocs(t *testing.T) {
	type key struct{ lo, hi int }
	e := NewEngine()
	c := &nopCaller{}
	for i := 0; i < 8; i++ {
		e.AtCall(Cycle(i), i, c)
	}
	within := func(tag any, k key) bool {
		v, ok := tag.(int)
		return ok && v >= k.lo && v < k.hi
	}
	var found bool
	if avg := testing.AllocsPerRun(200, func() {
		found = AnyPending(e, key{6, 9}, within)
	}); avg != 0 {
		t.Errorf("AnyPending allocates %.2f per walk, want 0", avg)
	}
	if !found {
		t.Fatal("AnyPending missed a pending tag")
	}
}
