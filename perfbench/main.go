// Command perfbench is the simulator's performance benchmark. It runs one
// of four workloads for a fixed amount of work, checks every simulated
// output against values recorded with the benchmark, and prints the
// host-time metrics a user of the simulator sees (untraced runs) or the
// per-layer counts, timings and host-time shares (traced runs).
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload worker64|exhibits-quick|fuzz-4node|mc-2node|all
//	          [--seed N] [--seconds N] [--trace 0|1] [--out DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is a full
// report: the environment, every metric with its unit (n/a ones as null)
// and, for traced runs, span self times. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string
}

// run executes the benchmark and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", heldOutSeed, "fuzz-4node program generator seed (other workloads are deterministic and ignore it)")
	fs.IntVar(&o.seconds, "seconds", 25, "measuring time the run's work is sized for")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for temporary caches, spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: bad arguments")
		return 2
	}
	o.trace = traceFlag == 1
	if o.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	var mk func(uint64, string) workload
	for _, w := range workloads {
		if w.name == o.workload {
			mk = w.mk
		}
	}
	if mk == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(o.out, "perfbench-tmp-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	w := mk(o.seed, tmp)
	var res *result
	if o.trace {
		res, err = tracedRun(w, o)
	} else {
		res, err = measuredRun(w, o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := res.write(stdout, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one after the
// other, so each reports its own peak memory, and passes their output
// through.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// metric is one reported value with its unit. A nil Value means the
// metric does not apply to the workload.
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// result is everything one run reports.
type result struct {
	attempted, failed int
	// contract holds the metrics of the final line, in BENCHMARK.json.
	contract map[string]metric
	// extra holds the report-only metrics (n/a ones as nil values).
	extra map[string]metric
	// notes carries report-only context: the tail's sample counts, span
	// self times, where the spans and profile were written.
	notes map[string]any
}

func newResult() *result {
	return &result{contract: map[string]metric{}, extra: map[string]metric{}, notes: map[string]any{}}
}

// set records a contract metric.
func (r *result) set(name string, v float64, unit string) {
	r.contract[name] = metric{Value: &v, Unit: unit}
}

// report records a report-only metric.
func (r *result) report(name string, v float64, unit string) {
	r.extra[name] = metric{Value: &v, Unit: unit}
}

// na records a report-only metric that does not apply to this workload.
func (r *result) na(name, unit string) {
	r.extra[name] = metric{Unit: unit}
}

// write prints the report line and then the final result line.
func (r *result) write(w io.Writer, o options) error {
	all := map[string]metric{}
	for k, v := range r.extra {
		all[k] = v
	}
	for k, v := range r.contract {
		all[k] = v
	}
	failRatio := float64(r.failed) / float64(r.attempted)
	all["fail_ratio"] = metric{Value: &failRatio, Unit: "ratio"}
	report := map[string]any{
		"workload": o.workload,
		"traced":   o.trace,
		"seed":     o.seed,
		"env":      environment(),
		"metrics":  all,
		"notes":    r.notes,
	}
	line, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	final, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.contract})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", line, final)
	return err
}

// environment records what a result depends on besides the code: the
// core count, the scheduler's parallelism, the toolchain, the commit and
// the date. The commit comes from PERFBENCH_COMMIT (run.sh sets it when
// the checkout is a git repository); the source digest identifies the
// code either way.
func environment() map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_digest": sourceDigest("."),
		"date":          time.Now().UTC().Format(time.RFC3339),
	}
}

// outPath names a file the run leaves in the output directory.
func outPath(o options, suffix string) string {
	return filepath.Join(o.out, fmt.Sprintf("perfbench-%s-seed%d%s", o.workload, o.seed, suffix))
}
