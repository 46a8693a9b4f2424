package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/debug"
	"runtime/pprof"
	"testing"
	"time"

	"swex/internal/machine"
	"swex/internal/proto"
	"swex/internal/sweep"
)

// TestCountsRepeat runs the counting pass of three workloads twice and
// requires identical per-layer counts: the simulator is deterministic, so
// any difference is a counting bug (or nondeterminism in the simulator).
func TestCountsRepeat(t *testing.T) {
	collect := func() counts {
		var c counts
		w := &worker64{}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if bad, err := w.count(nil, &c); err != nil || bad != 0 {
			t.Fatalf("worker64 count: %d mismatches, %v", bad, err)
		}

		f := &fuzz{seed: 7}
		if err := f.setup(); err != nil {
			t.Fatal(err)
		}
		f.batches = f.batches[:1]
		p := newProbe()
		if _, err := f.pass(p); err != nil {
			t.Fatal(err)
		}
		if bad, err := f.count(p, &c); err != nil || bad != 0 {
			t.Fatalf("fuzz count: %d mismatches, %v", bad, err)
		}

		m := &mc2{}
		if err := m.setup(); err != nil {
			t.Fatal(err)
		}
		m.cfgs = m.cfgs[:1]
		p = newProbe()
		if _, err := m.pass(p); err != nil {
			t.Fatal(err)
		}
		if _, err := m.count(p, &c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := collect(), collect()
	if a != b {
		t.Fatalf("counts differ between two runs:\n%+v\n%+v", a, b)
	}
	for name, v := range map[string]uint64{
		"sim.events": a.events, "mesh.messages": a.messages, "ext.traps": a.traps,
		"cache.misses": a.misses, "litmus.runs": a.litmusRuns, "sweep.executed": a.executed,
		"mc.states": a.mcStates, "mc.transitions": a.mcTransitions,
	} {
		if v == 0 {
			t.Errorf("%s counted nothing", name)
		}
	}
}

// TestTracedRunLeavesStatsIdentical checks that the counting hooks leave
// every simulated statistic as the unhooked run has it: the captured
// result of a hooked run equals sweep.Execute's for the same job.
func TestTracedRunLeavesStatsIdentical(t *testing.T) {
	prog, err := sweep.WorkerJob(8, 5, machine.Config{}).Program.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sweep.Job{
		sweep.WorkerJob(8, 5, machine.DefaultConfig(64, proto.LimitLESS(5))),
		sweep.WorkerJob(4, 3, machine.DefaultConfig(16, proto.SoftwareOnly())),
		sweep.AppJob("WATER", true, machine.DefaultConfig(16, proto.LimitLESS(2))),
	}
	for _, job := range jobs {
		want, err := sweep.Execute(job, 0)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := job.Program.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		var c counts
		got, _, err := runHooked(prog, job.Config, 0, &c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: hooked run differs:\n got %+v\nwant %+v", job, got, want)
		}
	}

	// The machine-level statistics the result summary leaves out.
	plain := machine.MustNew(machine.DefaultConfig(64, proto.LimitLESS(5)))
	res, _, err := prog.Run(plain, 0)
	if err != nil {
		t.Fatal(err)
	}
	var c counts
	if _, events, err := runHooked(prog, plain.Cfg, 0, &c); err != nil || events != plain.Engine.Fired() {
		t.Fatalf("hooked run fired %d events, plain %d (%v)", events, plain.Engine.Fired(), err)
	}
	if c.messages != res.Messages || c.busyRetries != res.BusyRetries || c.traps != res.Traps {
		t.Fatalf("hooked counts %+v differ from the plain result %+v", c, res)
	}
}

// TestWrongDigestFailsCheck is the output check's negative fixture: an
// exhibit whose recorded digest is wrong makes its op fail, and the
// correct digest makes it pass.
func TestWrongDigestFailsCheck(t *testing.T) {
	for _, tc := range []struct {
		digest string
		failed int
	}{
		{exhibitDigests["table2"], 0},
		{"0000000000000000", 1},
	} {
		e := &exhibits{tmp: t.TempDir(), expect: map[string]string{"table2": tc.digest}}
		if err := e.setup(); err != nil {
			t.Fatal(err)
		}
		for _, m := range e.mats {
			if m.Name == "table2" {
				e.mats = append(e.mats[:0], m)
				break
			}
		}
		pr, err := e.pass(nil)
		if err != nil {
			t.Fatal(err)
		}
		if pr.failed != tc.failed || len(pr.ops) != 1 {
			t.Errorf("digest %s: %d of %d ops failed, want %d", tc.digest, pr.failed, len(pr.ops), tc.failed)
		}
	}
}

// TestHostSharesSumToOne profiles a little simulation and checks that the
// profile decodes and every sample lands in exactly one layer.
func TestHostSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	w := &worker64{}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := w.setup(); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := hostShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no profile samples")
	}
	total := 0.0
	for _, l := range shareLayers {
		total += shares[l]
	}
	if math.Abs(total-1) > 1e-9 || shares["sim"] == 0 {
		t.Fatalf("shares %v sum to %v", shares, total)
	}
}

// TestLayerOf pins the attribution rules on hand-written stacks.
func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"swex/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "swex/internal/dir.NewPointerSet"}, "dir"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc",
			"runtime.mallocgc", "swex/internal/proto.(*Fabric).Send"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.chansend1", "swex/internal/proc.(*Env).do"}, "proc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "swex/internal/dir.(*Directory).Entry"}, "dir"},
		{[]string{"container/heap.Pop", "swex/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"swex/internal/stats.(*Counters).Inc"}, "other"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// TestTailOf checks the tail rule: the highest percentile with at least
// ten samples beyond it.
func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tailOf(xs); v != 90 || p != 90 {
		t.Fatalf("tailOf(1..100) = %v at p%v, want 90 at p90", v, p)
	}
}

// TestFuzzDrawsFromSeed checks that fuzz-4node's campaigns come from its
// seed alone: two set-ups with the same seed draw the same campaigns in
// the same order, and each draw is a new campaign.
func TestFuzzDrawsFromSeed(t *testing.T) {
	keys := func(f *fuzz) []string {
		var ks []string
		for _, b := range f.batches {
			for _, j := range b.jobs {
				k, err := j.Key("")
				if err != nil {
					t.Fatal(err)
				}
				ks = append(ks, k)
			}
		}
		return ks
	}
	a, b := &fuzz{seed: 3}, &fuzz{seed: 3}
	for _, f := range []*fuzz{a, b} {
		if err := f.setup(); err != nil {
			t.Fatal(err)
		}
	}
	first := keys(a)
	for i := 0; i < 2; i++ {
		if !reflect.DeepEqual(keys(a), keys(b)) {
			t.Fatalf("draw %d differs between two set-ups with the same seed", i)
		}
		a.draw()
		b.draw()
	}
	if reflect.DeepEqual(keys(a), first) {
		t.Fatal("a draw repeated the first campaign")
	}
}

// TestPeakRSSResets checks that the peak resident set can be reset to the
// current one, so each measured pass reports its own peak.
func TestPeakRSSResets(t *testing.T) {
	big := make([]byte, 64<<20)
	for i := 0; i < len(big); i += 4096 {
		big[i] = 1
	}
	withBig := peakRSSMB()
	big = nil
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		t.Skip("the peak resident set cannot be reset on this system")
	}
	if after := peakRSSMB(); after > withBig-32 {
		t.Fatalf("peak after reset %.1f MB, before %.1f MB: not reset", after, withBig)
	}
}

// stub is a workload of trivial ops, for testing the output format.
type stub struct{}

func (stub) setup() error           { return nil }
func (stub) passes(seconds int) int { return 2 }
func (stub) count(*probe, *counts) (int, error) {
	return 0, nil
}
func (stub) pass(p *probe) (passResult, error) {
	var pr passResult
	for i := 0; i < 12; i++ {
		id := p.beginOp("op")
		start := time.Now()
		time.Sleep(time.Millisecond)
		pr.ops = append(pr.ops, time.Since(start))
		p.end(id)
	}
	return pr, nil
}

// TestResultLineMatchesBenchmarkJSON checks that the last line of a run
// has exactly the contract's keys and exactly the metrics BENCHMARK.json
// lists for the run's mode, each with its unit.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bench struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		trace bool
		want  []spec
	}{{false, bench.EndToEnd}, {true, bench.PerLayer}} {
		o := options{workload: "stub", seconds: 1, trace: mode.trace, out: t.TempDir()}
		run := measuredRun
		if mode.trace {
			run = tracedRun
		}
		r, err := run(stub{}, o)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := r.write(&out, o); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var last map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatal(err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil {
			t.Fatalf("trace=%v: result keys %v", mode.trace, last)
		}
		var metrics map[string]struct {
			Value *float64
			Unit  string
		}
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(mode.want) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json lists %d", mode.trace, len(metrics), len(mode.want))
		}
		for _, m := range mode.want {
			got, ok := metrics[m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s = %+v, want a value in %s", mode.trace, m.Name, got, m.Unit)
			}
		}
	}
}

// TestSpans checks span parents, op ids and self times on a hand-built
// trace: the spans of one op share its id, and a span outside any op
// has id 0.
func TestSpans(t *testing.T) {
	p := newProbe()
	root := p.begin("pass")
	for i := 0; i < 2; i++ {
		op := p.beginOp("op")
		call := p.begin("call")
		time.Sleep(2 * time.Millisecond)
		p.end(call)
		p.end(op)
	}
	after := p.begin("after")
	p.end(after)
	p.end(root)

	want := []struct {
		name       string
		parent, op int
	}{{"pass", -1, 0}, {"op", 0, 1}, {"call", 1, 1}, {"op", 0, 2}, {"call", 3, 2}, {"after", 0, 0}}
	if len(p.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(p.spans), len(want))
	}
	for i, w := range want {
		s := p.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.Op != w.op || s.End < s.Start {
			t.Errorf("span %d = %+v, want %s under %d in op %d", i, s, w.name, w.parent, w.op)
		}
	}
	self := p.selfTimes()
	if self["call"] < 4 || self["op"] > self["call"] {
		t.Errorf("self times %v: the calls should hold nearly all the time", self)
	}
}
