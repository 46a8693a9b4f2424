package shm

import (
	"fmt"
	"strings"

	"swex/internal/mem"
	"swex/internal/proc"
)

// ObsLog is a per-thread observation log: each hardware context records,
// in its own program order, the values its shared-memory reads observed.
// It replaces ad-hoc post-run verification reads in tests and is the
// capture mechanism of the litmus-test subsystem (internal/litmus): a
// run's observations are exactly what the sequential-consistency oracle
// judges.
//
// The log lives on the host side, not in simulated memory: recording an
// observation costs no simulated cycles and generates no coherence
// traffic, so instrumented programs behave identically to uninstrumented
// ones. Entries are segregated per thread, and threads run only inside
// simulator events, one at a time, so recording is race-free by
// construction.
type ObsLog struct {
	tpn int
	obs [][]uint64
}

// NewObsLog allocates a log for a machine of nodes nodes running
// threadsPerNode hardware contexts each (pass 1 for the paper's
// single-threaded configurations; machine.Config.ThreadsPerNode of zero
// also means one).
func NewObsLog(nodes, threadsPerNode int) *ObsLog {
	if nodes <= 0 || threadsPerNode <= 0 {
		panic(fmt.Sprintf("shm: observation log for %d nodes x %d threads", nodes, threadsPerNode))
	}
	return &ObsLog{tpn: threadsPerNode, obs: make([][]uint64, nodes*threadsPerNode)}
}

// index maps an environment to its dense thread slot.
func (l *ObsLog) index(env *proc.Env) int {
	if env.Thread() >= l.tpn {
		panic(fmt.Sprintf("shm: observation log sized for %d threads per node, context %d observed", l.tpn, env.Thread()))
	}
	return int(env.ID())*l.tpn + env.Thread()
}

// Observe reads the word at a through the calling thread's cache,
// appends the observed value to the thread's log, and returns it.
func (l *ObsLog) Observe(env *proc.Env, a mem.Addr) uint64 {
	v := env.Read(a)
	l.Record(env, v)
	return v
}

// Record appends an already-obtained value to the calling thread's log —
// for observations that arrive through operations other than a plain
// read (an atomic exchange's old value, a WaitChange result).
func (l *ObsLog) Record(env *proc.Env, v uint64) {
	i := l.index(env)
	l.obs[i] = append(l.obs[i], v)
}

// Threads reports the number of thread slots in the log.
func (l *ObsLog) Threads() int { return len(l.obs) }

// Thread returns thread i's observations in its program order. The
// returned slice aliases the log; do not mutate it.
func (l *ObsLog) Thread(i int) []uint64 { return l.obs[i] }

// Values returns every thread's observations, indexed by dense thread
// id, in each thread's program order. The outer slice is freshly
// allocated; the inner slices alias the log.
func (l *ObsLog) Values() [][]uint64 {
	out := make([][]uint64, len(l.obs))
	copy(out, l.obs)
	return out
}

// String renders the log deterministically, one line per thread that
// observed anything: "t<idx>: v0 v1 ...". Threads with empty logs are
// omitted, so machine size does not bloat the rendering.
func (l *ObsLog) String() string {
	var b strings.Builder
	for i, vals := range l.obs {
		if len(vals) == 0 {
			continue
		}
		fmt.Fprintf(&b, "t%d:", i)
		for _, v := range vals {
			fmt.Fprintf(&b, " %d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
