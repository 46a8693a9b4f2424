// Command swexrun runs a single workload on a single machine configuration
// and reports everything the simulator observed: run time, per-node finish
// spread, traps, handler occupancy, message mix, cache behavior, and the
// worker-set histogram. It is the interactive counterpart of cmd/swex's
// batch experiments — the tool for exploring one configuration in depth.
//
// Examples:
//
//	swexrun -app WATER -nodes 64 -protocol h5 -victim 8
//	swexrun -worker 8 -iters 10 -nodes 16 -protocol h1ack
//	swexrun -app TSP -nodes 64 -protocol h0 -trace 40
//	swexrun -worker 8 -export trace.json
//	swexrun -worker 8 -critpath
//
// Observation goes through the structured tracing subsystem
// (internal/trace), installed as the machine's trace sink; it never
// perturbs simulated time, so the report is the same with or without it.
// -trace N appends the last N trace events, one line each. -export FILE
// writes the run as Chrome/Perfetto trace-event JSON (open it in
// https://ui.perfetto.dev or chrome://tracing; memory transactions are
// correlated across nodes as flows). -critpath appends the critical-path
// and per-flow work tables of the trace-derived latency attribution.
// Output is deterministic: the same flags produce byte-identical stdout
// and export files on every run.
//
// Exit status: 0 ok, 1 if the run fails, 2 on a usage error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"swex"
	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/mem"
	"swex/internal/proto"
	"swex/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and streams; it returns the exit
// status (0 ok, 1 failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swexrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName   = fs.String("app", "", "application: TSP AQ SMGRID EVOLVE MP3D WATER")
		workerK   = fs.Int("worker", 0, "run WORKER with this worker-set size instead of -app")
		iters     = fs.Int("iters", 10, "WORKER iterations")
		nodes     = fs.Int("nodes", 16, "machine size")
		protoStr  = fs.String("protocol", "h5", strings.Join(litmus.SpecAliases(), " "))
		victim    = fs.Int("victim", 0, "victim cache lines (0 = off)")
		ways      = fs.Int("ways", 0, "cache associativity (0/1 = direct-mapped)")
		threads   = fs.Int("threads", 1, "hardware contexts per node")
		pifetch   = fs.Bool("pifetch", false, "perfect instruction fetch")
		software  = fs.String("software", "c", "protocol software: c or asm")
		batch     = fs.Bool("batch", false, "read-burst batching enhancement")
		parinv    = fs.Bool("parinv", false, "parallel invalidation enhancement")
		migratory = fs.Bool("migratory", false, "migratory-data adaptation")
		traceN    = fs.Int("trace", 0, "print the last N trace events")
		export    = fs.String("export", "", "write the run as Chrome/Perfetto trace-event JSON to this file")
		critpath  = fs.Bool("critpath", false, "print the critical-path and per-flow work tables")
		profile   = fs.Int("profile", 0, "sample a timeline every N cycles")
		verify    = fs.Bool("verify", false, "run with the coherence invariant checker")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "swexrun: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "swexrun: %v\n", err)
		return 1
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if *traceN < 0 || *profile < 0 {
		return usage("-trace and -profile need a non-negative count")
	}

	spec, err := litmus.SpecByAlias(strings.ToLower(*protoStr))
	if err != nil {
		return usage("%v", err)
	}
	cfg := machine.Config{
		Nodes:           *nodes,
		Spec:            spec,
		VictimLines:     *victim,
		CacheWays:       *ways,
		PerfectIfetch:   *pifetch,
		BatchReads:      *batch,
		ParallelInv:     *parinv,
		MigratoryDetect: *migratory,
		ThreadsPerNode:  *threads,
	}
	switch strings.ToLower(*software) {
	case "c":
	case "asm":
		cfg.Software = machine.TunedASM
	default:
		return usage("unknown -software %q (want c or asm)", *software)
	}

	var app swex.App
	switch {
	case *workerK > 0:
		app = swex.Worker(*workerK, *iters)
	case *appName != "":
		if app, err = swex.AppByName(strings.ToUpper(*appName)); err != nil {
			return usage("%v", err)
		}
	default:
		return usage("need -app or -worker")
	}

	// One sink serves every observation flag: -export and -critpath need
	// the whole run, -trace alone only its tail.
	var sink *trace.Collector
	switch {
	case *export != "" || *critpath:
		sink = trace.NewCollector()
	case *traceN > 0:
		sink = trace.NewRing(*traceN)
	}
	if sink != nil { // a nil *Collector would be a non-nil trace.Sink
		cfg.Trace = sink
	}

	m, err := machine.New(cfg)
	if err != nil {
		return usage("%v", err)
	}
	if *verify {
		m.Fabric.EnableChecker()
	}

	inst := app.Setup(m)
	var res machine.Result
	var timeline *machine.Timeline
	if *profile > 0 {
		res, timeline, err = m.RunProfiled(inst.Thread, 0, swex.Cycle(*profile))
	} else {
		res, err = m.Run(inst.Thread, 0)
	}
	if err != nil {
		return fail(err)
	}

	w := bufio.NewWriter(stdout)
	report(w, app, cfg, m, res)

	if timeline != nil {
		fmt.Fprintf(w, "\ntimeline (every %d cycles): messages | traps\n", timeline.Interval)
		var peak uint64 = 1
		for _, v := range timeline.Messages {
			if v > peak {
				peak = v
			}
		}
		for i := range timeline.Messages {
			bar := int(timeline.Messages[i] * 40 / peak)
			fmt.Fprintf(w, "%10d  %-40s %6d | %d\n", swex.Cycle(i+1)*timeline.Interval,
				strings.Repeat("#", bar), timeline.Messages[i], timeline.Traps[i])
		}
	}

	var events []trace.Event
	if sink != nil {
		events = sink.Events()
	}
	if *traceN > 0 {
		tail := events[max(0, len(events)-*traceN):]
		fmt.Fprintf(w, "\nlast %d of %d trace events (start end node category op name txn arg):\n", len(tail), sink.Total())
		for _, e := range tail {
			fmt.Fprintf(w, "%10d %10d %4d  %-11s %-11s %-12s txn=%d arg=%d\n",
				e.Start, e.End, e.Node, e.Cat, e.Op, e.Name, e.Txn, e.Arg)
		}
	}
	if *critpath {
		recs := trace.Attribute(events)
		prof := trace.Summarize(recs)
		fmt.Fprintf(w, "\ncritical path over %d transactions\n\n%s\n%s\n", len(recs), prof.PathTable(), prof.WorkTable())
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}

	if *export != "" {
		if err := writeExport(*export, events, cfg.Nodes); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "swexrun: wrote %d trace events to %s\n", len(events), *export)
	}
	return 0
}

// report prints the run's summary: time, traffic, traps, cache behavior,
// message mix, handler latency and the worker-set histogram.
func report(w io.Writer, app swex.App, cfg machine.Config, m *machine.Machine, res machine.Result) {
	fmt.Fprintf(w, "%s on %d nodes, %s (%s software)\n", app.Name, cfg.Nodes, cfg.Spec.Name, cfg.Software)
	fmt.Fprintf(w, "  run time          %d cycles (%.3f ms at 33 MHz)\n", res.Time, 1000*res.Time.Seconds())
	lo, hi := res.Finish[0], res.Finish[0]
	for _, f := range res.Finish {
		lo, hi = min(lo, f), max(hi, f)
	}
	fmt.Fprintf(w, "  finish spread     %d .. %d cycles\n", lo, hi)
	fmt.Fprintf(w, "  messages          %d (mean hops %.2f)\n", res.Messages, m.Net.MeanHops())
	fmt.Fprintf(w, "  software traps    %d\n", res.Traps)
	fmt.Fprintf(w, "  handler cycles    %d\n", res.HandlerCycles)
	fmt.Fprintf(w, "  busy retries      %d\n", res.BusyRetries)
	fmt.Fprintf(w, "  watchdog fires    %d\n", m.Traps.TotalActivations())

	// Cache behavior, machine-wide.
	var hits, misses, ihits, imisses, victims uint64
	for n := 0; n < cfg.Nodes; n++ {
		st := m.Fabric.Cache(mem.NodeID(n)).Cache().Stats
		hits += st.Hits
		misses += st.Misses
		ihits += st.IHits
		imisses += st.IMisses
		victims += st.VictimHits
	}
	if hits+misses > 0 {
		fmt.Fprintf(w, "  data cache        %.2f%% hit (%d hits, %d misses, %d victim hits)\n",
			100*float64(hits)/float64(hits+misses), hits, misses, victims)
	}
	if ihits+imisses > 0 {
		fmt.Fprintf(w, "  instruction cache %.2f%% hit\n", 100*float64(ihits)/float64(ihits+imisses))
	}

	// Message mix.
	fmt.Fprintf(w, "  message mix      ")
	var kinds []proto.MsgKind
	for k, n := range res.Counts.Sent {
		if n > 0 {
			kinds = append(kinds, proto.MsgKind(k))
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	for _, k := range kinds {
		fmt.Fprintf(w, " %s=%d", k, res.Counts.Sent[k])
	}
	fmt.Fprintln(w)

	// Handler latency summary when software ran.
	if res.Ledger != nil && res.Ledger.N() > 0 {
		fmt.Fprintf(w, "  handler latency   read mean %.0f, write mean %.0f (n=%d)\n",
			res.Ledger.Mean(swex.ReadHandler, -1), res.Ledger.Mean(swex.WriteHandler, -1),
			res.Ledger.N())
	}

	// Worker-set histogram, compacted.
	fmt.Fprintf(w, "  worker sets      ")
	for _, b := range res.WorkerSets.Buckets() {
		fmt.Fprintf(w, " %d:%d", b, res.WorkerSets.Count(b))
	}
	fmt.Fprintln(w)
}

// writeExport writes events as Chrome/Perfetto trace-event JSON to path.
func writeExport(path string, events []trace.Event, nodes int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WritePerfetto(f, events, nodes); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
