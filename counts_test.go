// The exact gate on the simulator's deterministic counts. Simulated time,
// traffic and the event count of a fixed run are pure functions of the
// code, so any drift in them is a behavior change, and the allocation
// count is a ratchet on the host cost of the event loop. Excluded under
// the race detector, whose instrumentation allocates on its own account.
//
//go:build !race

package swex

import "testing"

// engineAllocCeiling is the committed ratchet on heap allocations per
// BenchmarkEngine run (machine construction included). Raising it
// requires editing this constant in a reviewed change.
const engineAllocCeiling = 116_110

// runBenchmarkEngine runs BenchmarkEngine's configuration once: 64-node
// WORKER(8, 5) under LimitLESS(5).
func runBenchmarkEngine(t *testing.T) (Result, uint64) {
	m, err := NewMachine(MachineConfig{Nodes: 64, Spec: LimitLESS(5)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(Worker(8, 5).Setup(m).Thread, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res, m.Engine.Fired()
}

// TestBenchmarkEngineCounts pins BenchmarkEngine's simulated outputs
// exactly and its allocations per run to the committed ceiling.
func TestBenchmarkEngineCounts(t *testing.T) {
	res, events := runBenchmarkEngine(t)
	if res.Time != 87_089 || res.Messages != 153_257 || res.Traps != 5_120 || events != 288_898 {
		t.Fatalf("time %d, messages %d, traps %d, events %d; want 87089, 153257, 5120, 288898",
			res.Time, res.Messages, res.Traps, events)
	}
	allocs := testing.AllocsPerRun(2, func() { runBenchmarkEngine(t) })
	t.Logf("%.0f allocations per run", allocs)
	if allocs > engineAllocCeiling {
		t.Errorf("%.0f allocations per run, ceiling %d", allocs, engineAllocCeiling)
	}
}
