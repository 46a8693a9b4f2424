package trace_test

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"swex/internal/apps"
	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proc"
	"swex/internal/proto"
	"swex/internal/stats"
	"swex/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace fixtures")

// runWorker runs the WORKER benchmark on a machine built from cfg; its
// Trace field selects a traced or untraced run.
func runWorker(t testing.TB, cfg machine.Config, set, iters int) machine.Result {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst := apps.Worker(apps.WorkerParams{SetSize: set, Iters: iters}).Setup(m)
	res, err := m.Run(inst.Thread, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTraceDeterminism is the subsystem's core contract: two identical
// runs must export byte-identical Perfetto JSON.
func TestTraceDeterminism(t *testing.T) {
	var exports [2]bytes.Buffer
	for i := range exports {
		sink := trace.NewCollector()
		runWorker(t, machine.Config{Nodes: 8, Spec: proto.LimitLESS(2), Trace: sink}, 4, 3)
		if err := trace.WritePerfetto(&exports[i], sink.Events(), 8); err != nil {
			t.Fatal(err)
		}
	}
	if exports[0].Len() == 0 {
		t.Fatal("empty export")
	}
	if !bytes.Equal(exports[0].Bytes(), exports[1].Bytes()) {
		t.Fatal("identical runs exported different traces")
	}
}

// TestDisabledTracingChangesNothing checks the zero-cost-when-disabled
// contract on the simulation itself: installing a sink must not move a
// single cycle or count. Worker sets of 4 overflow LimitLESS(2)'s two
// hardware pointers, so the runs trap, and the sink must observe every
// trap as one handler span. With BatchReads, piggybacked reads are traps
// too: Result.Traps is the one count of them, and the sink must agree.
func TestDisabledTracingChangesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch bool
	}{{"LimitLESS2", false}, {"LimitLESS2-batch", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.Config{Nodes: 8, Spec: proto.LimitLESS(2), BatchReads: tc.batch}
			off := runWorker(t, cfg, 4, 3)
			sink := trace.NewCollector()
			cfg.Trace = sink
			on := runWorker(t, cfg, 4, 3)
			if off.Time != on.Time {
				t.Fatalf("tracing moved the run time: %d vs %d cycles", off.Time, on.Time)
			}
			if off.Messages != on.Messages || off.Traps != on.Traps || off.BusyRetries != on.BusyRetries {
				t.Fatalf("tracing moved the counters: msgs %d/%d traps %d/%d retries %d/%d",
					off.Messages, on.Messages, off.Traps, on.Traps, off.BusyRetries, on.BusyRetries)
			}
			if off.Counts != on.Counts {
				t.Fatalf("tracing moved the protocol counts:\n off %+v\n on  %+v", off.Counts, on.Counts)
			}
			if tc.batch && on.Counts.BatchedReads == 0 {
				t.Fatal("no reads were batched")
			}
			var handlers uint64
			for _, e := range sink.Events() {
				if e.Op == trace.OpHandler {
					handlers++
				}
			}
			if on.Traps == 0 || handlers != on.Traps {
				t.Fatalf("sink observed %d handler spans for %d traps (want equal, non-zero)", handlers, on.Traps)
			}
		})
	}
}

// golden2Node runs a fixed two-node scenario under the software-only
// directory (every remote request traps, so the tiny trace exercises every
// span category) and returns its Perfetto export.
func golden2Node(t *testing.T) []byte {
	t.Helper()
	sink := trace.NewCollector()
	m, err := machine.New(machine.Config{Nodes: 2, Spec: proto.SoftwareOnly(), Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	shared := m.Mem.AllocOn(0, mem.WordsPerBlock)
	prog := func(e *proc.Env) {
		if e.ID() == 0 {
			e.Write(shared, 7)
			e.Compute(20)
			e.Read(shared)
		} else {
			e.Read(shared)
			e.Write(shared, 9)
		}
	}
	if _, err := m.Run(prog, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, sink.Events(), 2); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenPerfetto2Node pins the exporter's exact output for a tiny
// two-node run. Regenerate with -update after intentional format changes.
func TestGoldenPerfetto2Node(t *testing.T) {
	got := golden2Node(t)
	path := filepath.Join("testdata", "golden_2node.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("export drifted from golden %s (%d vs %d bytes); run with -update if intentional",
			path, len(got), len(want))
	}
}

// TestProfileMatchesTable2 ties the trace-derived profile to the paper's
// Table 2 and to the run's own handler ledger, on the Table 2 measurement
// configuration (WORKER, 16 nodes, Dir_nH_5S_NB, flexible C software).
func TestProfileMatchesTable2(t *testing.T) {
	sink := trace.NewCollector()
	res := runWorker(t, machine.Config{Nodes: 16, Spec: proto.LimitLESS(5), Trace: sink}, 8, 10)
	prof := trace.Summarize(trace.Attribute(sink.Events()))

	within := func(what string, got, want, tol float64) {
		t.Helper()
		if want == 0 || math.Abs(got-want)/want > tol {
			t.Errorf("%s = %.1f, want within %.0f%% of %.1f", what, got, 100*tol, want)
		}
	}

	// The write handler runs inside the requester's miss window, so both
	// the critical-path and the work views must land on the paper's 737-
	// cycle Table 2 write total (the run's median write walks the full
	// 8-reader worker set, the Table 2 shape).
	wr := prof.Row("write (sw)")
	if wr == nil {
		t.Fatal("no software-write transactions in the Table 2 run")
	}
	within("write (sw) critical-path sw-handler", wr.MeanPath(trace.CompSWHandler), 737, 0.05)
	within("write (sw) work sw-handler", wr.MeanWork(trace.CompSWHandler), 737, 0.05)

	// LimitLESS read handlers outlive the miss window (hardware sends the
	// data before the trap finishes recording sharers), so the full
	// handler cost appears in the work view; it must agree with the
	// run's own ledger, and sit between the paper's 193-cycle assembly
	// and 480-cycle C read totals near the C figure.
	rd := prof.Row("read (sw)")
	if rd == nil {
		t.Fatal("no software-read transactions in the Table 2 run")
	}
	within("read (sw) work sw-handler vs ledger",
		rd.MeanWork(trace.CompSWHandler), res.Ledger.Mean(stats.ReadRequest, -1), 0.05)
	within("read (sw) work sw-handler vs Table 2 C read", rd.MeanWork(trace.CompSWHandler), 480, 0.10)

	// Ledger cross-check for writes too: attribution must reproduce what
	// the handlers actually charged, not merely something plausible.
	within("write (sw) work sw-handler vs ledger",
		wr.MeanWork(trace.CompSWHandler), res.Ledger.Mean(stats.WriteRequest, -1), 0.05)
}

// Benchmarks for the tracing overhead claim: the disabled configuration is
// the seed hot path (one nil branch per hook); the enabled one shows the
// collector's cost. Compare with:
//
//	go test -run '^$' -bench 'Tracing' -benchmem ./internal/trace/
func benchWorker(b *testing.B, sink trace.Sink) {
	for i := 0; i < b.N; i++ {
		m, err := machine.New(machine.Config{Nodes: 4, Spec: proto.LimitLESS(2), Trace: sink})
		if err != nil {
			b.Fatal(err)
		}
		inst := apps.Worker(apps.WorkerParams{SetSize: 3, Iters: 2}).Setup(m)
		if _, err := m.Run(inst.Thread, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTracingDisabled(b *testing.B) {
	b.ReportAllocs()
	benchWorker(b, nil)
}

func BenchmarkTracingEnabled(b *testing.B) {
	b.ReportAllocs()
	benchWorker(b, trace.NewCollector())
}
