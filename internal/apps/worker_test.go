package apps

import (
	"testing"

	"swex/internal/machine"
	"swex/internal/proto"
	"swex/internal/sim"
)

// runWorker executes WORKER on a fresh machine and returns the run time.
func runWorker(t *testing.T, nodes, setSize, iters int, spec proto.Spec) (sim.Cycle, machine.Result) {
	t.Helper()
	m := machine.MustNew(machine.DefaultConfig(nodes, spec))
	prog := Worker(WorkerParams{SetSize: setSize, Iters: iters})
	res, _, err := prog.Run(m, 2_000_000_000)
	if err != nil {
		t.Fatalf("%s worker(%d): %v", spec.Name, setSize, err)
	}
	return res.Time, res
}

func TestWorkerCompletesAllProtocols(t *testing.T) {
	for _, spec := range proto.Spectrum() {
		t.Run(spec.Name, func(t *testing.T) {
			_, res := runWorker(t, 8, 4, 3, spec)
			if res.Messages == 0 {
				t.Fatal("no network traffic")
			}
		})
	}
}

func TestWorkerExactWorkerSets(t *testing.T) {
	// With set size k, every block's maximum simultaneous worker set is
	// exactly its k readers (the writer's exclusive copy never coexists
	// with the readers' copies).
	_, res := runWorker(t, 16, 8, 4, proto.FullMap())
	if got := res.WorkerSets.Count(8); got != 16*8 {
		t.Fatalf("worker-set histogram: bucket 8 = %d, want 128 (one per slot block)\n%s",
			got, res.WorkerSets)
	}
}

func TestWorkerInvalidationsPerWrite(t *testing.T) {
	// "Every write request causes a directory protocol to send exactly
	// one invalidation message to each reader." Full-map, 16 nodes,
	// k=4, 4 iterations: each of the 16 writers invalidates 4 readers
	// per iteration after the first read phase.
	_, res := runWorker(t, 16, 4, 4, proto.FullMap())
	invs := res.Counts.HWInvalidations
	// Write-phase invalidations: 16 blocks * 4 readers * 4 iters, plus
	// recall invalidations when readers pull the block from the writer
	// (one per block per iteration) and barrier traffic.
	min := uint64(16 * 4 * 4)
	if invs < min {
		t.Fatalf("hw invalidations = %d, want >= %d", invs, min)
	}
}

func TestWorkerProtocolOrdering(t *testing.T) {
	// The Figure 2 ordering at a worker-set size beyond all hardware
	// pointer counts: full-map fastest; more pointers no slower than
	// fewer; the software-only directory slowest by a wide margin.
	if testing.Short() {
		t.Skip("multi-protocol sweep")
	}
	times := map[string]sim.Cycle{}
	for _, spec := range []proto.Spec{
		proto.FullMap(), proto.LimitLESS(5), proto.LimitLESS(2),
		proto.OnePointer(proto.AckHW), proto.OnePointer(proto.AckSW),
		proto.SoftwareOnly(),
	} {
		tm, _ := runWorker(t, 16, 8, 6, spec)
		times[spec.Name] = tm
	}
	full := times["DirnHNBS-"]
	if times["DirnH5SNB"] < full {
		t.Fatalf("H5 (%d) beat full-map (%d)", times["DirnH5SNB"], full)
	}
	if times["DirnH2SNB"] < times["DirnH5SNB"] {
		t.Fatalf("H2 (%d) beat H5 (%d)", times["DirnH2SNB"], times["DirnH5SNB"])
	}
	if times["DirnH1SNB,ACK"] < times["DirnH1SNB"] {
		t.Fatalf("ACK variant (%d) beat hardware-ack variant (%d)",
			times["DirnH1SNB,ACK"], times["DirnH1SNB"])
	}
	h0 := times["DirnH0SNB,ACK"]
	if h0 <= times["DirnH5SNB"] {
		t.Fatalf("software-only (%d) not slower than H5 (%d)", h0, times["DirnH5SNB"])
	}
	if float64(h0)/float64(full) < 1.5 {
		t.Fatalf("software-only only %.2fx full-map; expected a wide margin",
			float64(h0)/float64(full))
	}
}

func TestWorkerSmallSetsNeverTrapOnH5(t *testing.T) {
	// Worker sets of 4 fit entirely within five hardware pointers (plus
	// the local bit), so Dir_nH_5S_NB must match full-map exactly: zero
	// traps.
	_, res := runWorker(t, 16, 4, 4, proto.LimitLESS(5))
	if res.Traps != 0 {
		t.Fatalf("H5 trapped %d times on size-4 worker sets", res.Traps)
	}
}

func TestWorkerDeterministic(t *testing.T) {
	a, _ := runWorker(t, 8, 4, 3, proto.LimitLESS(2))
	b, _ := runWorker(t, 8, 4, 3, proto.LimitLESS(2))
	if a != b {
		t.Fatalf("WORKER run times differ: %d vs %d", a, b)
	}
}
