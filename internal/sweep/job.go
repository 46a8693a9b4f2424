package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"swex/internal/apps"
	"swex/internal/litmus"
	"swex/internal/machine"
	"swex/internal/sim"
)

// WorkerName is the ProgramRef.App value naming the WORKER synthetic
// benchmark (paper Section 5). The six applications use their paper names.
const WorkerName = "WORKER"

// LitmusName is the ProgramRef.App value naming a litmus test; the
// program itself lives in ProgramRef.Litmus.
const LitmusName = litmus.AppName

// codeVersion salts every job key. Bump it whenever a change alters
// simulation results (cycle counts, handler accounting, protocol
// behavior), so stale cache entries from the previous semantics can never
// satisfy a new sweep. Purely additive changes (new fields captured into
// Result) also require a bump, since cached objects would lack them.
// swex-sim-v4: canonical (owner, cnt) event keys replaced issue-order
// sequencing for same-cycle events (see the sim package comment),
// shifting cycle counts by under a percent on every exhibit.
const codeVersion = "swex-sim-v4"

// ProgramRef names a workload canonically, so a job can be hashed,
// journaled, and re-resolved in a later process.
type ProgramRef struct {
	// App is WorkerName, LitmusName, or one of the paper names in
	// apps.Registry (TSP, AQ, SMGRID, EVOLVE, MP3D, WATER).
	App string
	// Quick selects the reduced problem size from apps.QuickRegistry.
	// Ignored for WORKER, whose size is explicit.
	Quick bool
	// SetSize is the WORKER worker-set size (App == WorkerName).
	SetSize int
	// Iters is the WORKER iteration count (App == WorkerName).
	Iters int
	// Litmus is the canonical litmus-program encoding (App ==
	// LitmusName), produced by litmus.Program.String. The encoding is
	// part of the job key, so every distinct program is a distinct
	// cacheable computation.
	Litmus string
}

// Resolve looks the reference up in the application registry.
func (p ProgramRef) Resolve() (apps.Program, error) {
	if p.App == WorkerName {
		if p.SetSize <= 0 || p.Iters <= 0 {
			return apps.Program{}, fmt.Errorf("sweep: WORKER job needs positive SetSize and Iters (got %d, %d)", p.SetSize, p.Iters)
		}
		return apps.Worker(apps.WorkerParams{SetSize: p.SetSize, Iters: p.Iters}), nil
	}
	if p.App == LitmusName {
		prog, err := litmus.Parse(p.Litmus)
		if err != nil {
			return apps.Program{}, err
		}
		return prog.AppProgram(), nil
	}
	registry := apps.Registry()
	if p.Quick {
		registry = apps.QuickRegistry()
	}
	for _, prog := range registry {
		if prog.Name == p.App {
			return prog, nil
		}
	}
	return apps.Program{}, fmt.Errorf("sweep: unknown application %q", p.App)
}

// Job is one point of an experiment matrix: a workload on a machine
// configuration, with an optional per-job simulated-cycle budget. Two jobs
// with equal keys describe the same computation and share a cache entry.
type Job struct {
	// Program names the workload.
	Program ProgramRef
	// Config is the machine configuration the workload runs on.
	Config machine.Config
	// Limit bounds the run in simulated cycles (0 = the runner default, or
	// unbounded). Exceeding it records a failure, not a hang.
	Limit sim.Cycle
}

// WorkerJob builds a WORKER job.
func WorkerJob(setSize, iters int, cfg machine.Config) Job {
	return Job{
		Program: ProgramRef{App: WorkerName, SetSize: setSize, Iters: iters},
		Config:  cfg,
	}
}

// AppJob builds a job for one of the six applications by paper name.
func AppJob(name string, quick bool, cfg machine.Config) Job {
	return Job{Program: ProgramRef{App: name, Quick: quick}, Config: cfg}
}

// LitmusJob builds a job running the litmus program on the configuration;
// the program's observation log is captured into Result.Obs for the
// sequential-consistency oracle.
func LitmusJob(p litmus.Program, cfg machine.Config) Job {
	return Job{Program: ProgramRef{App: LitmusName, Litmus: p.String()}, Config: cfg}
}

// Key renders the job as a canonical string: every field that influences
// the simulation outcome, in a fixed order, plus the code-version salt.
// Configurations that cannot be described canonically (an installed trace
// sink or custom protocol software) are rejected — their behavior is not
// captured by the key, so caching them would alias distinct computations.
func (j Job) Key(salt string) (string, error) {
	if j.Config.Trace != nil {
		return "", fmt.Errorf("sweep: job %s has a trace sink installed; traced runs are not cacheable", j.Program.App)
	}
	if j.Config.CustomSoftware != nil {
		return "", fmt.Errorf("sweep: job %s has custom protocol software installed; its identity cannot be hashed", j.Program.App)
	}
	if strings.ContainsAny(j.Program.App, "|=") {
		return "", fmt.Errorf("sweep: program name %q contains key metacharacters", j.Program.App)
	}
	if strings.ContainsAny(j.Program.Litmus, "|=") {
		return "", fmt.Errorf("sweep: litmus encoding %q contains key metacharacters", j.Program.Litmus)
	}
	c := j.Config
	s := c.Spec
	t := c.Timing
	// Each field renders as "|name=value" through typed writers, not
	// fmt, so no field is boxed into an interface.
	var b strings.Builder
	var num [20]byte
	name := func(field string) {
		b.WriteByte('|')
		b.WriteString(field)
		b.WriteByte('=')
	}
	str := func(field, v string) { name(field); b.WriteString(v) }
	flag := func(field string, v bool) { name(field); b.WriteString(strconv.FormatBool(v)) }
	integer := func(field string, v int64) { name(field); b.Write(strconv.AppendInt(num[:0], v, 10)) }
	b.WriteString(codeVersion)
	str("salt", salt)
	str("app", j.Program.App)
	flag("quick", j.Program.Quick)
	integer("set", int64(j.Program.SetSize))
	integer("iters", int64(j.Program.Iters))
	str("litmus", j.Program.Litmus)
	integer("nodes", int64(c.Nodes))
	integer("loseinv", int64(c.LoseInv))
	str("spec", s.Name)
	integer("hw", int64(s.HWPointers))
	flag("fullmap", s.FullMap)
	flag("localbit", s.LocalBit)
	integer("ack", int64(s.AckMode))
	flag("bcast", s.Broadcast)
	flag("swonly", s.SoftwareOnly)
	flag("dls", s.Directoryless)
	integer("soft", int64(c.Software))
	integer("victim", int64(c.VictimLines))
	flag("pifetch", c.PerfectIfetch)
	flag("batch", c.BatchReads)
	flag("parinv", c.ParallelInv)
	flag("mig", c.MigratoryDetect)
	integer("threads", int64(c.ThreadsPerNode))
	integer("clines", int64(c.CacheLines))
	integer("cways", int64(c.CacheWays))
	integer("tmem", int64(t.MemLatency))
	integer("thome", int64(t.HomeProc))
	integer("tfill", int64(t.CacheFill))
	integer("tretry", int64(t.RetryDelay))
	integer("freq", int64(t.ReqFlits))
	integer("fdata", int64(t.DataFlits))
	integer("fctl", int64(t.CtlFlits))
	mt := c.MemTier
	integer("mtkind", int64(mt.Kind))
	integer("mthops", int64(mt.Far.Hops))
	integer("mthopcyc", int64(mt.Far.HopCycles))
	integer("mtflitcyc", int64(mt.Far.FlitCycles))
	integer("mtflits", int64(mt.Far.Flits))
	integer("mtmemcyc", int64(mt.Far.MemCycles))
	integer("mtdread", int64(mt.DRAMRead))
	integer("mtdwrite", int64(mt.DRAMWrite))
	integer("mtnread", int64(mt.NVMRead))
	integer("mtnwrite", int64(mt.NVMWrite))
	integer("mtdblocks", int64(mt.DRAMBlocks))
	integer("mtpromote", int64(mt.PromoteAfter))
	integer("limit", int64(j.Limit))
	return b.String(), nil
}

// HashKey returns the content address of a canonical key: the hex SHA-256.
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}
