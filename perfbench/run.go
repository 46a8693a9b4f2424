package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is the fuzz-4node generator seed reserved for verifying a
// performance claim: tune on other seeds, then confirm on this one.
const heldOutSeed = 1000003

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 9

// workload is one benchmark workload.
type workload interface {
	// setup builds the inputs (programs, job matrices, caches) and warms
	// the code paths with one untimed op. It may be called repeatedly;
	// each call starts from scratch.
	setup() error
	// pass runs one pass of ops, checking every output.
	pass(p *probe) (passResult, error)
	// passes is how many passes fill about the given measuring time on
	// the reference machine.
	passes(seconds int) int
	// count collects the per-layer counts of the pass just run under p,
	// re-executing its simulations with observation hooks where the
	// public results do not expose a count, and checks that the hooked
	// runs reproduce the unhooked results exactly. A mismatch is a
	// failed op.
	count(p *probe, c *counts) (failed int, err error)
}

// A drawer is a workload that draws fresh inputs from its seed for each
// measured pass. The measured run calls draw between passes, outside
// their timing; traced runs keep the inputs of set-up for all passes.
type drawer interface {
	draw()
}

// workloads names every workload's constructor, in the order
// `--workload all` runs them; tmp is a temporary directory inside the
// output directory.
var workloads = []struct {
	name string
	mk   func(seed uint64, tmp string) workload
}{
	{"worker64", func(uint64, string) workload { return &worker64{} }},
	{"exhibits-quick", func(_ uint64, tmp string) workload { return &exhibits{tmp: tmp, expect: exhibitDigests} }},
	{"fuzz-4node", func(seed uint64, _ string) workload { return &fuzz{seed: seed} }},
	{"mc-2node", func(uint64, string) workload { return &mc2{} }},
}

// passResult is what one pass measured.
type passResult struct {
	ops    []time.Duration // per-op latency
	failed int             // ops whose output check failed
	sims   int             // simulations completed
	events uint64          // simulated events (worker64 only)
	states uint64          // model-checker states (mc-2node only)
	warm   time.Duration   // warm pass (exhibits-quick only)
}

// passesFor sizes a run: whole passes of about nominal each, filling the
// measuring time, and at least two.
func passesFor(seconds int, nominal float64) int {
	n := int(math.Round(float64(seconds) / nominal))
	if n < 2 {
		n = 2
	}
	return n
}

// measuredRun is an untraced run: set up several times, then run the
// passes and report the end-to-end metrics.
func measuredRun(w workload, o options) (*result, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var ops []float64
	var walls, warms, peaks []float64
	var failed, sims int
	var events, states uint64
	var allocs uint64
	var ms runtime.MemStats
	measured := time.Now()
	n := w.passes(o.seconds)
	for i := 0; i < n; i++ {
		if d, ok := w.(drawer); ok && i > 0 {
			d.draw()
		}
		// Each pass starts from a collected heap returned to the system,
		// so its peak resident set is its own and not the run's.
		debug.FreeOSMemory()
		resetPeak := resetPeakRSS()
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		start := time.Now()
		pr, err := w.pass(nil)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start) - pr.warm
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - mallocs
		if resetPeak {
			peaks = append(peaks, peakRSSMB())
		}
		walls = append(walls, wall.Seconds())
		if pr.warm > 0 {
			warms = append(warms, pr.warm.Seconds())
		}
		for _, d := range pr.ops {
			ops = append(ops, float64(d)/float64(time.Millisecond))
		}
		failed += pr.failed
		sims += pr.sims
		events += pr.events
		states += pr.states
	}
	elapsed := time.Since(measured).Seconds()
	if len(peaks) == 0 {
		// The peak could not be reset: report the whole process's.
		peaks = append(peaks, peakRSSMB())
	}

	r := newResult()
	r.attempted, r.failed = len(ops), failed
	r.set("setup_s", median(setups), "s")
	r.set("wall_s", median(walls), "s")
	r.set("op_p50_ms", median(ops), "ms")
	tail, pct := tailOf(ops)
	r.set("op_tail_ms", tail, "ms")
	r.set("allocs_per_op", float64(allocs)/float64(len(ops)), "count")
	r.set("peak_rss_mb", median(peaks), "MB")
	r.notes["passes"] = n
	r.notes["ops"] = len(ops)
	r.notes["op_tail_percentile"] = pct
	r.notes["op_tail_beyond"] = tailBeyond
	r.notes["measured_s"] = elapsed

	if sims > 0 {
		r.report("sims_per_s", float64(sims)/sum(walls), "1/s")
	} else {
		r.na("sims_per_s", "1/s")
	}
	if events > 0 {
		r.report("sim_events_per_s", float64(events)/sum(walls), "1/s")
	} else {
		r.na("sim_events_per_s", "1/s")
	}
	if states > 0 {
		r.report("mc_states_per_s", float64(states)/sum(walls), "1/s")
	} else {
		r.na("mc_states_per_s", "1/s")
	}
	if len(warms) > 0 {
		r.report("warm_s", median(warms), "s")
	} else {
		r.na("warm_s", "s")
	}
	return r, nil
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tailOf returns the highest percentile with at least tailBeyond samples
// beyond it, and that percentile. With fewer than tailBeyond+1 samples
// it returns the minimum.
func tailOf(xs []float64) (value, percentile float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 1 - tailBeyond
	if i < 0 {
		i = 0
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// resetPeakRSS resets the process's peak resident set size to its
// current one (Linux's clear_refs "5") and reports whether it could.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set size in MiB since it
// started or since the last resetPeakRSS.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kib, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sourceDigest hashes the module's Go sources and go.mod under root,
// outside the benchmark's own directory and build output, so a result
// names the code it measured even where no git commit is available.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
