package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime/pprof"
	"time"

	"swex/internal/apps"
	"swex/internal/machine"
	"swex/internal/sim"
	"swex/internal/sweep"
	"swex/internal/trace"
)

// probe is what a traced pass records: the benchmark's own spans around
// its calls into each layer, and the sweep jobs and results the pass saw.
// A nil probe (the untraced runs) records nothing.
type probe struct {
	t0     time.Time
	spans  []span
	stack  []int
	ops    int // ops begun so far
	op     int // the open op's id, 0 outside ops
	opRoot int // the open op's root span

	jobs       []sweep.Job    // jobs submitted through the sweep layer
	results    []sweep.Result // their results, index-aligned
	execs      int            // simulations the sweep layer executed
	litmusRuns uint64         // litmus runs judged by the oracle
	violations uint64         // runs the oracle flagged
	mcStates   uint64         // model-checker states
	mcTrans    uint64         // model-checker transitions
}

// span is one timed call: the pass, an op, or a call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the root
	Op     int    `json:"op"`     // shared by every span of one op; 0 outside ops
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

func newProbe() *probe { return &probe{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (p *probe) begin(name string) int {
	if p == nil {
		return -1
	}
	parent := -1
	if n := len(p.stack); n > 0 {
		parent = p.stack[n-1]
	}
	id := len(p.spans)
	p.spans = append(p.spans, span{ID: id, Parent: parent, Op: p.op, Name: name, Start: int64(time.Since(p.t0))})
	p.stack = append(p.stack, id)
	return id
}

// beginOp opens the root span of a new op.
func (p *probe) beginOp(name string) int {
	if p == nil {
		return -1
	}
	p.ops++
	p.op = p.ops
	p.opRoot = p.begin(name)
	return p.opRoot
}

// end closes span id, which must be the innermost open one.
func (p *probe) end(id int) {
	if p == nil {
		return
	}
	p.spans[id].End = int64(time.Since(p.t0))
	p.stack = p.stack[:len(p.stack)-1]
	if p.op != 0 && id == p.opRoot {
		p.op = 0
	}
}

// selfTimes sums each span name's self time in milliseconds: its
// duration minus the part its child spans cover (children of one span
// never overlap: they are sequential calls on the benchmark goroutine).
func (p *probe) selfTimes() map[string]float64 {
	child := make([]int64, len(p.spans))
	for _, s := range p.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range p.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func (p *probe) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range p.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRunner is the sweep runner a traced pass hands the experiments: it
// times each matrix submission and keeps the jobs and their results for
// the counting pass.
type spanRunner struct {
	inner *sweep.Runner
	p     *probe
}

func (s spanRunner) Run(ctx context.Context, jobs []sweep.Job) ([]sweep.Result, error) {
	id := s.p.begin("sweep.run")
	res, err := s.inner.Run(ctx, jobs)
	s.p.end(id)
	if err == nil {
		s.p.jobs = append(s.p.jobs, jobs...)
		s.p.results = append(s.p.results, res...)
	}
	return res, err
}

// counts are the per-layer work counts of one traced pass. Simulated
// counts come from the public results and, where those expose nothing,
// from hooked re-executions: the machine's trace.Sink and the engine's
// Observer, both public.
type counts struct {
	events, pendingSum, pendingN uint64 // sim
	messages, rxWait             uint64 // mesh (rxWait in simulated cycles)
	misses, imisses              uint64 // cache: transactions and ifetch stalls
	traps, handlerCycles         uint64 // ext (handler cycles simulated)
	busyRetries                  uint64 // proto
	executed, cacheHits          uint64 // sweep
	litmusRuns, violations       uint64 // litmus
	mcStates, mcTransitions      uint64 // mc
}

// countSink counts the trace events that carry a layer count no public
// result exposes.
type countSink struct{ c *counts }

func (s countSink) Emit(e trace.Event) {
	switch {
	case e.Cat == trace.CatMemOp:
		s.c.misses++
	case e.Op == trace.OpIfetch:
		s.c.imisses++
	case e.Op == trace.OpRxQueue:
		s.c.rxWait += uint64(e.End - e.Start)
	}
}

// runHooked runs prog on cfg with the counting hooks installed and adds
// the run's counts to c. It mirrors sweep.Execute, so its captured result
// must equal the sweep layer's for the same job.
func runHooked(prog apps.Program, cfg machine.Config, limit sim.Cycle, c *counts) (sweep.Result, uint64, error) {
	cfg.Trace = countSink{c}
	m, err := machine.New(cfg)
	if err != nil {
		return sweep.Result{}, 0, err
	}
	m.Engine.Observer = func(_ sim.Cycle, pending int) {
		c.pendingSum += uint64(pending)
		c.pendingN++
	}
	mres, inst, err := prog.Run(m, limit)
	if err != nil {
		return sweep.Result{}, 0, err
	}
	c.events += m.Engine.Fired()
	c.messages += mres.Messages
	c.traps += mres.Traps
	c.handlerCycles += uint64(mres.HandlerCycles)
	c.busyRetries += mres.BusyRetries
	res := sweep.CaptureResult(mres)
	if inst.Observations != nil {
		res.Obs = inst.Observations.Values()
	}
	return res, m.Engine.Fired(), nil
}

// countJobs re-executes every distinct job a traced pass submitted, with
// hooks, and returns how many of them did not reproduce the sweep
// layer's result exactly.
func countJobs(p *probe, limit sim.Cycle, c *counts) (int, error) {
	seen := map[string]bool{}
	mismatched := 0
	for i, job := range p.jobs {
		key, err := job.Key("")
		if err != nil {
			return 0, err
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		prog, err := job.Program.Resolve()
		if err != nil {
			return 0, err
		}
		lim := job.Limit
		if lim == 0 {
			lim = limit
		}
		res, _, err := runHooked(prog, job.Config, lim, c)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", job, err)
		}
		if !reflect.DeepEqual(res, p.results[i]) {
			mismatched++
		}
	}
	return mismatched, nil
}

// tracedRun is the run that reports per-layer metrics: an untraced pass,
// a pass with spans and a CPU profile, and a second untraced pass, so the
// tracing overhead compares the traced pass with the mean of the two
// around it; then the counting pass and the per-layer microbenchmarks.
func tracedRun(w workload, o options) (*result, error) {
	if err := w.setup(); err != nil {
		return nil, err
	}
	untraced := func() (passResult, time.Duration, error) {
		start := time.Now()
		pr, err := w.pass(nil)
		return pr, time.Since(start), err
	}
	before, d1, err := untraced()
	if err != nil {
		return nil, err
	}

	p := newProbe()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	start := time.Now()
	root := p.begin("pass")
	traced, err := w.pass(p)
	p.end(root)
	tracedDur := time.Since(start)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	after, d2, err := untraced()
	if err != nil {
		return nil, err
	}
	base := (d1 + d2) / 2

	var c counts
	mismatched, err := w.count(p, &c)
	if err != nil {
		return nil, err
	}
	shares, samples, err := hostShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	micro, err := microbenchmarks(o.out)
	if err != nil {
		return nil, err
	}

	r := newResult()
	r.attempted = len(before.ops) + len(traced.ops) + len(after.ops)
	r.failed = before.failed + traced.failed + after.failed + mismatched
	pending := 0.0
	if c.pendingN > 0 {
		pending = float64(c.pendingSum) / float64(c.pendingN)
	}
	for _, m := range []struct {
		name string
		v    float64
		unit string
	}{
		{"sim.events", float64(c.events), "count"},
		{"sim.pending_mean", pending, "count"},
		{"mesh.messages", float64(c.messages), "count"},
		{"mesh.rx_wait_cycles", float64(c.rxWait), "cycles"},
		{"cache.misses", float64(c.misses), "count"},
		{"cache.imisses", float64(c.imisses), "count"},
		{"ext.traps", float64(c.traps), "count"},
		{"ext.handler_cycles", float64(c.handlerCycles), "cycles"},
		{"proto.busy_retries", float64(c.busyRetries), "count"},
		{"sweep.executed", float64(c.executed), "count"},
		{"sweep.cache_hits", float64(c.cacheHits), "count"},
		{"litmus.runs", float64(c.litmusRuns), "count"},
		{"litmus.violations", float64(c.violations), "count"},
		{"mc.states", float64(c.mcStates), "count"},
		{"mc.transitions", float64(c.mcTransitions), "count"},
		{"trace.overhead_pct", 100 * (tracedDur.Seconds() - base.Seconds()) / base.Seconds(), "%"},
	} {
		r.set(m.name, m.v, m.unit)
	}
	for _, l := range shareLayers {
		r.set(l+".host_share", shares[l], "ratio")
	}
	for _, m := range micro {
		r.set(m.name, m.value, m.unit)
	}

	spansPath, profPath := outPath(o, "-spans.jsonl"), outPath(o, "-cpu.pprof")
	if err := p.writeSpans(spansPath); err != nil {
		return nil, err
	}
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	r.notes["span_self_ms"] = p.selfTimes()
	r.notes["spans"] = len(p.spans)
	r.notes["spans_file"] = spansPath
	r.notes["profile_file"] = profPath
	r.notes["untraced_pass_s"] = base.Seconds()
	r.notes["traced_pass_s"] = tracedDur.Seconds()
	r.notes["counting_mismatches"] = mismatched
	r.notes["profile_samples"] = samples
	return r, nil
}
