package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"swex/internal/cache"
	"swex/internal/dir"
	"swex/internal/ext"
	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/memtier"
	"swex/internal/mesh"
	"swex/internal/proc"
	"swex/internal/proto"
	"swex/internal/sim"
	"swex/internal/sweep"
)

// The per-layer microbenchmarks time calls into each layer's public
// functions, outside any workload: a layer's cost per call, which the
// end-to-end metric it feeds can be read against. Each reports the median
// over microReps repetitions.

// microReps is how many times each microbenchmark repeats.
const microReps = 5

// simQueueDepth is the engine queue depth sim.schedule_fire_ns runs at:
// the mean pending-event count worker64's traced run reports.
const simQueueDepth = 100

// microResult is one microbenchmark's value.
type microResult struct {
	name  string
	value float64
	unit  string
}

// timed runs one repetition and returns its elapsed time and op count.
type timed func() (time.Duration, int)

// perOp returns the median time per op over microReps repetitions, in
// the given unit of time.
func perOp(rep timed, unit time.Duration) float64 {
	var xs []float64
	for i := 0; i < microReps; i++ {
		d, n := rep()
		xs = append(xs, float64(d)/float64(unit)/float64(n))
	}
	return median(xs)
}

// microbenchmarks runs every layer's microbenchmark; the sweep cache
// benchmark writes under dir. A microbenchmark panics only on a simulator
// defect or a disk failure; either is reported as the run's error.
func microbenchmarks(dir string) (out []microResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("microbenchmark: %v", r)
		}
	}()
	ns := func(name string, rep timed) { out = append(out, microResult{name, perOp(rep, time.Nanosecond), "ns"}) }
	us := func(name string, rep timed) { out = append(out, microResult{name, perOp(rep, time.Microsecond), "us"}) }

	ns("sim.schedule_fire_ns", scheduleFire)
	ns("proc.handoff_ns", handoff)
	ns("mesh.send_ns", meshSend)
	ns("dir.pointerset_ns", pointerSetRound(5, 5))
	ns("dir.pointerset_fullmap_ns", pointerSetRound(64, 64))
	ns("dir.entry_ns", dirEntry)
	ns("cache.lookup_ns", cacheLookup)
	ns("cache.insert_ns", cacheInsert)
	readOverflow, writeFault := extHandlers()
	ns("ext.read_overflow_ns", readOverflow)
	ns("ext.write_fault_ns", writeFault)
	ns("proto.read_miss_ns", remoteMiss(false))
	ns("proto.write_miss_ns", remoteMiss(true))
	ns("memtier.access_disagg_ns", tierAccess(memtier.DefaultDisaggregated()))
	ns("memtier.access_tiered_ns", tierAccess(memtier.DefaultTiered()))
	for _, n := range []struct {
		nodes int
		spec  proto.Spec
	}{{4, proto.FullMap()}, {64, proto.LimitLESS(5)}} {
		t, allocs := machineNew(n.nodes, n.spec)
		out = append(out,
			microResult{fmt.Sprintf("machine.new%d_us", n.nodes), t, "us"},
			microResult{fmt.Sprintf("machine.new%d_allocs", n.nodes), allocs, "count"})
	}
	us("sweep.key_us", sweepKey)
	get, put, err := sweepCache(dir)
	if err != nil {
		return nil, err
	}
	us("sweep.cache_get_us", get)
	us("sweep.cache_put_us", put)
	check, err := litmusCheck()
	if err != nil {
		return nil, err
	}
	us("litmus.check_us", check)
	return out, nil
}

// refire is an engine event that reschedules itself when it fires, so
// the queue stays at a constant depth.
type refire struct {
	e      *sim.Engine
	delays []sim.Cycle
	i      int
}

func (r *refire) Fire() {
	r.i++
	r.e.AfterCall(r.delays[r.i%len(r.delays)], nil, r)
}

// scheduleFire times one AfterCall plus one Step at simQueueDepth.
func scheduleFire() (time.Duration, int) {
	const n = 200_000
	rnd := sim.NewRand(1)
	delays := make([]sim.Cycle, 1024)
	for i := range delays {
		delays[i] = sim.Cycle(1 + rnd.Intn(400))
	}
	e := sim.NewEngine()
	r := &refire{e: e, delays: delays}
	for i := 0; i < simQueueDepth; i++ {
		e.AfterCall(delays[i%len(delays)], nil, r)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		e.Step()
	}
	return time.Since(start), n
}

// handoff times one Env operation's round trip between a thread and the
// engine on a 1-node machine.
func handoff() (time.Duration, int) {
	const n = 50_000
	m := machine.MustNew(machine.DefaultConfig(1, proto.FullMap()))
	start := time.Now()
	if _, err := m.Run(func(env *proc.Env) {
		for i := 0; i < n; i++ {
			env.Compute(1)
		}
	}, 0); err != nil {
		panic(fmt.Sprintf("perfbench: handoff run: %v", err))
	}
	return time.Since(start), n
}

// nop is an engine event that does nothing.
type nop struct{}

func (nop) Fire() {}

// meshSend times one message send and its delivery event on a 64-node
// mesh.
func meshSend() (time.Duration, int) {
	const n = 200_000
	e := sim.NewEngine()
	net := mesh.New(e, mesh.DefaultConfig(64))
	var c nop
	start := time.Now()
	for i := 0; i < n; i++ {
		net.SendCall(i%64, (i*7+3)%64, 2, 0, nil, c)
		if i%64 == 63 {
			e.Run(0)
		}
	}
	e.Run(0)
	return time.Since(start), n
}

// pointerSetRound times one round of a directory pointer set: fill adds
// pointers, a Has for each, one Remove and a Drain.
func pointerSetRound(capacity, fill int) timed {
	return func() (time.Duration, int) {
		const n = 100_000
		p := dir.NewPointerSet(capacity)
		hits := 0
		start := time.Now()
		for i := 0; i < n; i++ {
			for id := 0; id < fill; id++ {
				p.Add(mem.NodeID(id))
			}
			for id := 0; id < fill; id++ {
				if p.Has(mem.NodeID(id)) {
					hits++
				}
			}
			p.Remove(0)
			p.Drain()
		}
		d := time.Since(start)
		if hits != n*fill {
			panic("perfbench: pointer set lost pointers")
		}
		return d, n
	}
}

// dirEntry times one directory entry lookup among 4096 resident blocks.
func dirEntry() (time.Duration, int) {
	const n, blocks = 500_000, 4096
	d := dir.New(5)
	for b := 0; b < blocks; b++ {
		d.Entry(mem.Block(b))
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		d.Entry(mem.Block(i * 7 % blocks))
	}
	return time.Since(start), n
}

// cacheLookup times one data lookup in a full Alewife cache, half of
// them hits.
func cacheLookup() (time.Duration, int) {
	const n = 500_000
	c := cache.New(cache.DefaultConfig())
	for b := 0; b < 4096; b++ {
		c.Insert(cache.Line{Block: mem.Block(b), State: cache.Shared})
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Lookup(mem.Block(i*7%8192), false)
	}
	return time.Since(start), n
}

// cacheInsert times one line fill that displaces a resident line.
func cacheInsert() (time.Duration, int) {
	const n = 500_000
	c := cache.New(cache.DefaultConfig())
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Insert(cache.Line{Block: mem.Block(i * 7 % 8192), State: cache.Shared})
	}
	return time.Since(start), n
}

// extHandlers returns the timings of the LimitLESS software handlers on
// a 64-node machine: a read overflow that extends a fresh entry with
// five drained pointers, and the write fault that releases it.
func extHandlers() (readOverflow, writeFault timed) {
	const n = 20_000
	blocks := make([]mem.Block, n)
	for i := range blocks {
		blocks[i] = mem.BlockOf(mem.SegBase(mem.NodeID(i%64))) + mem.Block(i/64)
	}
	drained := []mem.NodeID{1, 2, 3, 4, 5}
	fresh := func() *ext.Handlers {
		h, err := ext.New(64, proto.LimitLESS(5), ext.FlexibleC())
		if err != nil {
			panic(fmt.Sprintf("perfbench: %v", err))
		}
		return h
	}
	readOverflow = func() (time.Duration, int) {
		h := fresh()
		start := time.Now()
		for _, b := range blocks {
			h.ReadOverflow(b, drained, 6)
		}
		return time.Since(start), n
	}
	writeFault = func() (time.Duration, int) {
		h := fresh()
		for _, b := range blocks {
			h.ReadOverflow(b, drained, 6)
		}
		start := time.Now()
		for _, b := range blocks {
			h.WriteFault(b, 7, 6)
		}
		return time.Since(start), n
	}
	return readOverflow, writeFault
}

// remoteMiss times one read (or write) miss to a block homed on another
// node of a 4-node full-map machine, end to end through proc, proto,
// mesh and sim.
func remoteMiss(write bool) timed {
	return func() (time.Duration, int) {
		const n = 1024
		m := machine.MustNew(machine.DefaultConfig(4, proto.FullMap()))
		base := m.Mem.AllocOn(1, n*mem.WordsPerBlock)
		start := time.Now()
		if _, err := m.Run(func(env *proc.Env) {
			if env.ID() != 0 {
				return
			}
			for i := 0; i < n; i++ {
				a := base + mem.Addr(i*mem.WordsPerBlock)
				if write {
					env.Write(a, 1)
				} else {
					env.Read(a)
				}
			}
		}, 0); err != nil {
			panic(fmt.Sprintf("perfbench: miss run: %v", err))
		}
		return time.Since(start), n
	}
}

// tierAccess times one directory-side memory access of a tier model.
func tierAccess(cfg memtier.Config) timed {
	return func() (time.Duration, int) {
		const n = 500_000
		m := memtier.New(sim.NewEngine(), 4, cfg)
		start := time.Now()
		for i := 0; i < n; i++ {
			m.Access(mem.NodeID(i%4), mem.Block(i%256), i%4 == 0)
		}
		return time.Since(start), n
	}
}

// machineNew returns the median build time in microseconds and the
// allocations of one machine.New.
func machineNew(nodes int, spec proto.Spec) (us, allocs float64) {
	n := 4096 / nodes
	cfg := machine.DefaultConfig(nodes, spec)
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	us = perOp(func() (time.Duration, int) {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < n; i++ {
			machine.MustNew(cfg)
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms1)
		mallocs = ms1.Mallocs - ms0.Mallocs
		return d, n
	}, time.Microsecond)
	return us, float64(mallocs) / float64(n)
}

// sweepKey times one canonical job key.
func sweepKey() (time.Duration, int) {
	const n = 20_000
	job := sweep.WorkerJob(8, 5, machine.DefaultConfig(64, proto.LimitLESS(5)))
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := job.Key(""); err != nil {
			panic(fmt.Sprintf("perfbench: %v", err))
		}
	}
	return time.Since(start), n
}

// sweepCache returns the timings of the on-disk result cache: a Get of a
// journaled result, and a Put (object write, fsync, rename, journal).
func sweepCache(dir string) (get, put timed, err error) {
	const n = 16
	res, err := sweep.Execute(sweep.WorkerJob(4, 2, machine.DefaultConfig(16, proto.LimitLESS(5))), 0)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]string, n)
	for i := range keys {
		if keys[i], err = sweep.WorkerJob(i+1, 2, machine.DefaultConfig(16, proto.LimitLESS(5))).Key(""); err != nil {
			return nil, nil, err
		}
	}
	reps := 0
	open := func() (*sweep.Cache, string) {
		reps++
		d := filepath.Join(dir, fmt.Sprintf("sweep-cache-%d", reps))
		c, err := sweep.OpenCache(d)
		if err != nil {
			panic(fmt.Sprintf("perfbench: %v", err))
		}
		return c, d
	}
	fill := func(c *sweep.Cache) time.Duration {
		start := time.Now()
		for _, k := range keys {
			if err := c.Put(k, res); err != nil {
				panic(fmt.Sprintf("perfbench: %v", err))
			}
		}
		return time.Since(start)
	}
	put = func() (time.Duration, int) {
		c, d := open()
		defer os.RemoveAll(d)
		defer c.Close()
		return fill(c), n
	}
	get = func() (time.Duration, int) {
		c, d := open()
		defer os.RemoveAll(d)
		defer c.Close()
		fill(c)
		const rounds = 20
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, k := range keys {
				if _, ok := c.Get(k); !ok {
					panic("perfbench: cache lost a result")
				}
			}
		}
		return time.Since(start), rounds * n
	}
	return get, put, nil
}

// litmusCheck times one sequential-consistency verdict over the corpus
// programs' observations from a 4-node full-map machine.
func litmusCheck() (timed, error) {
	type run struct {
		prog litmus.Program
		obs  [][]uint64
	}
	var runs []run
	for _, tc := range litmus.Corpus() {
		if len(tc.Prog.Threads) > 4 {
			continue
		}
		res, err := sweep.Execute(sweep.LitmusJob(tc.Prog, machine.DefaultConfig(4, proto.FullMap())), fuzzLimit)
		if err != nil {
			return nil, err
		}
		obs, err := litmus.ThreadObs(tc.Prog, res.Obs, 1)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run{tc.Prog, obs})
	}
	return func() (time.Duration, int) {
		const rounds = 200
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, x := range runs {
				if v, err := litmus.CheckSC(x.prog, x.obs); err != nil || !v.OK {
					panic(fmt.Sprintf("perfbench: corpus run judged not SC: %v", err))
				}
			}
		}
		return time.Since(start), rounds * len(runs)
	}, nil
}
