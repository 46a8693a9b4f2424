package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"swex"
	"swex/internal/apps"
	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/mc"
	"swex/internal/proto"
	"swex/internal/sim"
	"swex/internal/sweep"
)

// ---------------------------------------------------------------- worker64

// worker64 is BenchmarkEngine's configuration: repeated NewMachine + Run
// of 64-node WORKER (set size 8, 5 iterations) under LimitLESS(5) with
// the flexible C handlers. An op is one machine build and run.
type worker64 struct {
	cfg  machine.Config
	prog apps.Program
}

// worker64Ops is how many machine runs make one pass.
const worker64Ops = 4

// workerStats are the simulated outputs a worker64 op must reproduce.
type workerStats struct {
	Time     sim.Cycle
	Messages uint64
	Traps    uint64
	Events   uint64
}

func (w *worker64) setup() error {
	w.cfg = swex.MachineConfig{Nodes: 64, Spec: swex.LimitLESS(5)}
	w.prog = swex.Worker(8, 5)
	_, err := w.op(nil)
	return err
}

func (w *worker64) passes(seconds int) int { return passesFor(seconds, 1.0) }

// op builds and runs one machine and returns its simulated outputs.
func (w *worker64) op(p *probe) (workerStats, error) {
	id := p.begin("machine.new")
	m, err := machine.New(w.cfg)
	p.end(id)
	if err != nil {
		return workerStats{}, err
	}
	id = p.begin("apps.setup")
	inst := w.prog.Setup(m)
	p.end(id)
	id = p.begin("machine.run")
	res, err := m.Run(inst.Thread, 0)
	p.end(id)
	if err != nil {
		return workerStats{}, err
	}
	return workerStats{res.Time, res.Messages, res.Traps, m.Engine.Fired()}, nil
}

func (w *worker64) pass(p *probe) (passResult, error) {
	var pr passResult
	for i := 0; i < worker64Ops; i++ {
		start := time.Now()
		id := p.beginOp("op")
		st, err := w.op(p)
		p.end(id)
		if err != nil {
			return pr, err
		}
		pr.ops = append(pr.ops, time.Since(start))
		pr.sims++
		pr.events += st.Events
		if st != worker64Expect {
			pr.failed++
		}
	}
	return pr, nil
}

func (w *worker64) count(p *probe, c *counts) (int, error) {
	res, events, err := runHooked(w.prog, w.cfg, 0, c)
	if err != nil {
		return 0, err
	}
	got := workerStats{res.Time, res.Messages, res.Traps, events}
	if got != worker64Expect {
		return 1, nil
	}
	return 0, nil
}

// ---------------------------------------------------------- exhibits-quick

// exhibits renders every swex.Matrices() exhibit with Quick through one
// 2-worker Sweeper on a fresh on-disk cache (the cold pass), then again
// through a Sweeper reopened on that cache (the warm pass), which must
// execute no simulation and render the same bytes. An op is one cold
// exhibit render.
type exhibits struct {
	tmp    string
	expect map[string]string // exhibit name -> digest of its rendered text
	mats   []swex.Matrix
	n      int // cache directories made so far
}

// sweepWorkers is the pool size of every Sweeper the benchmark opens.
const sweepWorkers = 2

func (e *exhibits) setup() error {
	e.mats = swex.Matrices()
	for _, m := range e.mats {
		for _, j := range m.Jobs(swex.Options{Quick: true}) {
			if _, err := j.Key(""); err != nil {
				return err
			}
		}
	}
	// Warm the code paths with the first exhibit on a throwaway cache.
	dir, err := e.cacheDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sw, err := swex.NewSweeper(swex.SweeperConfig{Workers: sweepWorkers, CacheDir: dir})
	if err != nil {
		return err
	}
	_, err = e.mats[0].Render(swex.Options{Quick: true, Sweep: sw})
	if cerr := sw.Close(); err == nil {
		err = cerr
	}
	return err
}

func (e *exhibits) cacheDir() (string, error) {
	e.n++
	dir := filepath.Join(e.tmp, fmt.Sprintf("cache-%d", e.n))
	return dir, os.MkdirAll(dir, 0o755)
}

func (e *exhibits) passes(seconds int) int { return passesFor(seconds, 2.0) }

// runner wraps a Sweeper for the experiments, with spans when traced.
func runner(sw *sweep.Runner, p *probe) swex.JobRunner {
	if p == nil {
		return sw
	}
	return spanRunner{inner: sw, p: p}
}

func (e *exhibits) pass(p *probe) (passResult, error) {
	var pr passResult
	dir, err := e.cacheDir()
	if err != nil {
		return pr, err
	}
	defer os.RemoveAll(dir)

	id := p.begin("sweep.open")
	sw, err := swex.NewSweeper(swex.SweeperConfig{Workers: sweepWorkers, CacheDir: dir})
	p.end(id)
	if err != nil {
		return pr, err
	}
	cold := make([]string, len(e.mats))
	bad := make([]bool, len(e.mats))
	for i, m := range e.mats {
		start := time.Now()
		id := p.beginOp("op")
		rid := p.begin("exhibit." + m.Name)
		out, err := m.Render(swex.Options{Quick: true, Sweep: runner(sw, p)})
		p.end(rid)
		p.end(id)
		pr.ops = append(pr.ops, time.Since(start))
		cold[i] = out
		bad[i] = err != nil || digest(out) != e.expect[m.Name]
	}
	pr.sims = sw.TotalExecs()
	id = p.begin("sweep.close")
	err = sw.Close()
	p.end(id)
	if err != nil {
		return pr, err
	}
	if p != nil {
		p.execs += pr.sims
	}

	start := time.Now()
	wid := p.begin("warm")
	sw, err = swex.NewSweeper(swex.SweeperConfig{Workers: sweepWorkers, CacheDir: dir})
	if err != nil {
		return pr, err
	}
	for i, m := range e.mats {
		rid := p.begin("exhibit." + m.Name)
		out, err := m.Render(swex.Options{Quick: true, Sweep: runner(sw, p)})
		p.end(rid)
		if err != nil || out != cold[i] {
			bad[i] = true
		}
	}
	warmExecs := sw.TotalExecs()
	err = sw.Close()
	p.end(wid)
	pr.warm = time.Since(start)
	if err != nil {
		return pr, err
	}
	for i := range bad {
		if bad[i] || warmExecs != 0 {
			pr.failed++
		}
	}
	return pr, nil
}

func (e *exhibits) count(p *probe, c *counts) (int, error) {
	c.executed = uint64(p.execs)
	c.cacheHits = uint64(len(p.jobs)) - c.executed
	return countJobs(p, 0, c)
}

// digest is the recorded form of an exhibit's rendered text.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// -------------------------------------------------------------- fuzz-4node

// fuzz is a seeded litmus campaign matching swexfuzz's defaults: the
// corpus plus fuzzPrograms generated programs on 4 nodes under the specs
// full, h1ack and dir1sw, through a 2-worker Sweeper with no cache, every
// run judged by the sequential-consistency oracle. An op is one of
// fuzzBatches equal batches of the programs, across the three specs.
//
// Set-up draws the first campaign from the seed's generator (swexfuzz's
// at that seed); draw replaces it with the generator's next one between
// passes, so a measured run averages over many campaigns rather than
// hinging on the few costly programs of one.
type fuzz struct {
	seed    uint64
	specs   []proto.Spec
	pool    []string         // spec aliases generated programs may pin
	corpus  []litmus.Program // the corpus programs that fit the machine
	gen     *sim.Rand
	batches []fuzzBatch // the current campaign
}

// fuzzBatch is one op's jobs with the programs they run.
type fuzzBatch struct {
	jobs  []sweep.Job
	progs []litmus.Program
}

const (
	fuzzPrograms = 1000
	fuzzBatches  = 5 // ops per pass
	fuzzNodes    = 4
	fuzzLimit    = 50_000_000 // swexfuzz's per-run cycle budget
)

var fuzzSpecs = []string{"full", "h1ack", "dir1sw"}

func (f *fuzz) setup() error {
	f.specs, f.pool, f.corpus = nil, nil, nil
	for _, a := range fuzzSpecs {
		s, err := litmus.SpecByAlias(a)
		if err != nil {
			return err
		}
		f.specs = append(f.specs, s)
	}
	// The override pool is the software-capable, non-software-only specs,
	// as in swexfuzz.
	for i, s := range f.specs {
		if s.UsesSoftware() && !s.SoftwareOnly {
			f.pool = append(f.pool, fuzzSpecs[i])
		}
	}
	for _, tc := range litmus.Corpus() {
		if len(tc.Prog.Threads) <= fuzzNodes {
			f.corpus = append(f.corpus, tc.Prog)
		}
	}
	f.gen = sim.NewRand(f.seed)
	f.draw()
	rn, err := f.newRunner()
	if err != nil {
		return err
	}
	bad, err := f.batch(rn, f.batches[0], nil)
	if err == nil && bad {
		err = fmt.Errorf("warm-up batch failed its check")
	}
	return err
}

// draw makes the next campaign: the corpus and the generator's next
// fuzzPrograms programs, split into batches.
func (f *fuzz) draw() {
	progs := append([]litmus.Program(nil), f.corpus...)
	for i := 0; i < fuzzPrograms; i++ {
		progs = append(progs, litmus.Generate(f.gen, litmus.GenConfig{SpecAliases: f.pool}))
	}
	f.batches = make([]fuzzBatch, fuzzBatches)
	for i := range f.batches {
		b := &f.batches[i]
		lo, hi := i*len(progs)/fuzzBatches, (i+1)*len(progs)/fuzzBatches
		for _, spec := range f.specs {
			for _, prog := range progs[lo:hi] {
				if !litmus.CompatibleBase(prog, spec) {
					continue
				}
				job := sweep.LitmusJob(prog, machine.DefaultConfig(fuzzNodes, spec))
				job.Limit = fuzzLimit
				b.jobs = append(b.jobs, job)
				b.progs = append(b.progs, prog)
			}
		}
	}
}

func (f *fuzz) newRunner() (*sweep.Runner, error) {
	return sweep.NewRunner(sweep.Config{Workers: sweepWorkers, CycleBudget: fuzzLimit})
}

func (f *fuzz) passes(seconds int) int { return passesFor(seconds, 1.0) }

// batch runs one op and judges every run; bad reports a failed run or a
// violation.
func (f *fuzz) batch(rn *sweep.Runner, b fuzzBatch, p *probe) (bad bool, err error) {
	id := p.begin("sweep.sweep")
	outs := rn.Sweep(context.Background(), b.jobs)
	p.end(id)
	id = p.begin("litmus.check")
	defer p.end(id)
	for i, out := range outs {
		if out.Err != nil {
			bad = true
			continue
		}
		if p != nil {
			p.jobs = append(p.jobs, out.Job)
			p.results = append(p.results, out.Result)
		}
		obs, err := litmus.ThreadObs(b.progs[i], out.Result.Obs, out.Job.Config.ThreadsPerNode)
		if err != nil {
			return true, err
		}
		v, err := litmus.CheckSC(b.progs[i], obs)
		if err != nil {
			return true, err
		}
		if p != nil {
			p.litmusRuns++
		}
		if !v.OK {
			bad = true
			if p != nil {
				p.violations++
			}
		}
	}
	return bad, nil
}

func (f *fuzz) pass(p *probe) (passResult, error) {
	var pr passResult
	rn, err := f.newRunner()
	if err != nil {
		return pr, err
	}
	for _, b := range f.batches {
		start := time.Now()
		id := p.beginOp("op")
		bad, err := f.batch(rn, b, p)
		p.end(id)
		if err != nil {
			return pr, err
		}
		pr.ops = append(pr.ops, time.Since(start))
		if bad {
			pr.failed++
		}
	}
	pr.sims = rn.TotalExecs()
	if p != nil {
		p.execs += pr.sims
	}
	return pr, nil
}

func (f *fuzz) count(p *probe, c *counts) (int, error) {
	c.executed = uint64(p.execs)
	c.cacheHits = uint64(len(p.jobs)) - c.executed
	c.litmusRuns, c.violations = p.litmusRuns, p.violations
	return countJobs(p, fuzzLimit, c)
}

// ---------------------------------------------------------------- mc-2node

// mc2 runs mc.Check over the 2-node, 1-block, 3-operation configuration
// of every protocol in the spectrum: the configuration whose state counts
// the model checker's goldens pin. An op is one protocol's check.
type mc2 struct {
	cfgs []mc.Config
}

func (w *mc2) setup() error {
	w.cfgs = nil
	for _, spec := range proto.Spectrum() {
		w.cfgs = append(w.cfgs, mc.Config{Spec: spec, Nodes: 2, Blocks: 1, MaxOps: 3})
	}
	_, err := mc.Check(w.cfgs[len(w.cfgs)-1])
	return err
}

func (w *mc2) passes(seconds int) int { return passesFor(seconds, 1.4) }

func (w *mc2) pass(p *probe) (passResult, error) {
	var pr passResult
	for _, cfg := range w.cfgs {
		start := time.Now()
		id := p.beginOp("op")
		cid := p.begin("mc.check")
		res, err := mc.Check(cfg)
		p.end(cid)
		p.end(id)
		if err != nil {
			return pr, err
		}
		pr.ops = append(pr.ops, time.Since(start))
		pr.states += res.States
		want, ok := mcGolden[cfg.Spec.Name]
		if !ok || res.Violation != nil || res.Bounded || res.States != want[0] || res.Transitions != want[1] {
			pr.failed++
		}
		if p != nil {
			p.mcStates += res.States
			p.mcTrans += res.Transitions
		}
	}
	return pr, nil
}

func (w *mc2) count(p *probe, c *counts) (int, error) {
	c.mcStates, c.mcTransitions = p.mcStates, p.mcTrans
	return 0, nil
}
