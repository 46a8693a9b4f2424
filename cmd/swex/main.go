// Command swex regenerates the tables and figures of Chaiken & Agarwal,
// "Software-Extended Coherent Shared Memory: Performance and Cost"
// (ISCA 1994) on the package's cycle-level simulator.
//
// Usage:
//
//	swex [-quick] [-json] [-workers N] [-cache DIR] <exhibit>... | all
//	swex -list [-quick] <exhibit>... | all
//	swex -status -cache DIR
//	swex -cache DIR compact
//
// Exhibits are the sweep matrices of swex.Matrices() (table1 .. tiers)
// followed by the ablation studies (ablate-localbit .. ablate-mthread);
// run swex without arguments for the list.
//
// -quick runs reduced problem sizes (seconds instead of minutes) that
// preserve every qualitative shape. -json prints the assembled data of
// the named exhibits as one JSON object instead of the rendered tables.
//
// The sweep matrices execute through one shared sweep runner (see
// internal/sweep): -workers bounds the worker pool (default: one per
// core), and -cache persists finished simulation points to a
// content-addressed result cache, so re-runs and overlapping exhibits
// skip completed work and a killed run resumes where it stopped. Stdout
// is a pure function of the exhibits named: byte-identical at any worker
// count, cold or warm. Each exhibit's cost goes to stderr — jobs,
// simulations executed, jobs served from the cache, and wall time.
//
// -list prints each matrix job's content hash and description without
// running anything (the matrix as the cache will see it; ablations run no
// sweep jobs and list nothing). -status summarizes a cache directory's
// manifest journal — distinct completed and failed jobs, with the
// failures' journaled errors (stacks included) — and exits non-zero when
// the journal records failures, so scripts can gate on a clean sweep. The
// compact subcommand rewrites the manifest journal down to one record per
// live entry.
//
// To run the matrices on a swexd coordinator's workers instead of in
// process, use swexd submit; its stdout is byte-identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"swex"
	"swex/internal/sweep"
)

// ablations are the exhibits outside the sweep registry: each runs custom
// programs directly on a machine, so they carry no Jobs.
func ablations() []swex.Matrix {
	return []swex.Matrix{
		ablation("ablate-localbit", "one-bit local pointer on/off", "ablation: local bit disabled", swex.AblateLocalBit),
		ablation("ablate-software", "flexible C vs hand-tuned assembly handlers", "ablation: hand-tuned assembly handlers", swex.AblateSoftware),
		ablation("ablate-broadcast", "DirnH1SNB,LACK vs Dir1H1SB,LACK", "ablation: broadcast instead of software directory", swex.AblateBroadcast),
		ablation("ablate-batch", "read-burst batching enhancement", "ablation: read-burst batching enabled", swex.AblateBatchReads),
		ablation("ablate-parinv", "sequential vs parallel invalidation transmission", "ablation: parallel invalidation transmission", swex.AblateParallelInv),
		ablation("ablate-dataspec", "block-by-block protocol reconfiguration", "ablation: EVOLVE fitness table promoted to full-map", swex.AblateDataSpecific),
		ablation("ablate-migratory", "migratory-data adaptation (dynamic detection)", "ablation: migratory-data read-for-ownership", swex.AblateMigratory),
		ablation("ablate-assoc", "victim cache vs 2-way set-associative cache", "ablation: associativity remedies for I/D thrashing", swex.AblateAssociativity),
		ablation("ablate-cico", "Check-In/Check-Out program annotations", "ablation: CICO check-in after reads", swex.AblateCICO),
		ablation("ablate-mthread", "block multithreading (latency tolerance)", "ablation: 4 hardware contexts per node", swex.AblateMultithreading),
	}
}

func ablation(name, caption, title string, fn func(swex.Options) ([]swex.AblationRow, error)) swex.Matrix {
	return swex.Matrix{
		Name:    name,
		Caption: caption,
		Render: func(o swex.Options) (string, error) {
			rows, err := fn(o)
			if err != nil {
				return "", err
			}
			return swex.AblationTable(title, rows).String(), nil
		},
		Data: func(o swex.Options) (any, error) { return fn(o) },
	}
}

// exhibits is every exhibit in "all" order: the sweep matrices, then the
// ablations.
func exhibits() []swex.Matrix { return append(swex.Matrices(), ablations()...) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and streams; it returns the exit
// status (0 ok, 1 failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swex", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run reduced problem sizes")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of tables")
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = one per core)")
	cacheDir := fs.String("cache", "", "content-addressed result cache directory (empty = in-memory only)")
	list := fs.Bool("list", false, "print each matrix's jobs (hash and description) without running")
	status := fs.Bool("status", false, "summarize the cache manifest journal and exit (non-zero if failures are journaled)")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "swex: %v\n", err)
		return 1
	}

	if *status || (fs.NArg() == 1 && fs.Arg(0) == "compact") {
		if *cacheDir == "" {
			fmt.Fprintln(stderr, "swex: -status and compact need -cache DIR")
			return 2
		}
		c, err := sweep.OpenCache(*cacheDir)
		if err != nil {
			return fail(err)
		}
		defer c.Close()
		if !*status {
			records, err := c.Compact()
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "cache %s: manifest compacted to %d record(s)\n", *cacheDir, records)
			return 0
		}
		st := c.Status()
		fmt.Fprintf(stdout, "cache %s: %d job(s) done, %d failed\n", *cacheDir, st.Done, st.Failed)
		for _, f := range st.Failures {
			fmt.Fprintf(stdout, "  FAILED %s\n    %s\n", f.Key, f.Err)
		}
		if st.Failed > 0 {
			return 1
		}
		return 0
	}

	selected, err := selectExhibits(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "swex: %v\n\n", err)
		fs.Usage()
		return 2
	}
	opts := swex.Options{Quick: *quick}

	if *list {
		for _, m := range selected {
			if m.Jobs == nil {
				continue
			}
			fmt.Fprintf(stdout, "# %s: %s\n", m.Name, m.Caption)
			for _, job := range m.Jobs(opts) {
				key, err := job.Key("")
				if err != nil {
					return fail(fmt.Errorf("%s: %w", m.Name, err))
				}
				fmt.Fprintf(stdout, "%s  %s\n", sweep.HashKey(key)[:16], job)
			}
		}
		return 0
	}

	sweeper, err := swex.NewSweeper(swex.SweeperConfig{Workers: *workers, CacheDir: *cacheDir})
	if err != nil {
		return fail(err)
	}
	defer sweeper.Close()
	opts.Sweep = sweeper

	results := map[string]any{}
	for _, m := range selected {
		start := time.Now()
		before := sweeper.TotalExecs()
		var out string
		var err error
		if *asJSON {
			results[m.Name], err = m.Data(opts)
		} else {
			out, err = m.Render(opts)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", m.Name, err))
		}
		if !*asJSON {
			fmt.Fprintf(stdout, "== %s: %s\n\n%s\n", m.Name, m.Caption, out)
		}
		elapsed := time.Since(start).Seconds()
		if m.Jobs == nil {
			fmt.Fprintf(stderr, "swex: %s: %.1fs\n", m.Name, elapsed)
			continue
		}
		jobs := len(m.Jobs(opts))
		executed := sweeper.TotalExecs() - before
		fmt.Fprintf(stderr, "swex: %s: %d job(s), %d executed, %d from cache, %.1fs on %d worker(s)\n",
			m.Name, jobs, executed, jobs-executed, elapsed, sweeper.Workers())
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return fail(err)
		}
	}
	return 0
}

// selectExhibits resolves the argument list ("all" or exhibit names).
func selectExhibits(args []string) ([]swex.Matrix, error) {
	all := exhibits()
	if len(args) == 1 && args[0] == "all" {
		return all, nil
	}
	if len(args) == 0 {
		return nil, fmt.Errorf("no exhibits named (want exhibit names or \"all\")")
	}
	var selected []swex.Matrix
	for _, a := range args {
		i := slices.IndexFunc(all, func(m swex.Matrix) bool { return m.Name == a })
		if i < 0 {
			return nil, fmt.Errorf("unknown exhibit %q", a)
		}
		selected = append(selected, all[i])
	}
	return selected, nil
}

func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintf(w, `usage: swex [-quick] [-json] [-workers N] [-cache DIR] <exhibit>... | all
       swex -list [-quick] <exhibit>... | all
       swex -status -cache DIR
       swex -cache DIR compact

exhibits:
`)
	for _, m := range exhibits() {
		fmt.Fprintf(w, "  %-16s %s\n", m.Name, m.Caption)
	}
	fmt.Fprintf(w, "\nflags:\n")
	fs.PrintDefaults()
}
