package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// small is a four-node WORKER run under LimitLESS(2): worker sets of 4
// overflow the hardware pointers, so the run traps, in milliseconds.
var small = []string{"-worker", "4", "-iters", "2", "-nodes", "4", "-protocol", "h2"}

// swexrun runs the command in process on small plus extra and returns its
// exit status and streams.
func swexrun(t *testing.T, extra ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(append(append([]string{}, small...), extra...), &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestReportDeterministic(t *testing.T) {
	code, first, errOut := swexrun(t)
	if code != 0 {
		t.Fatalf("exited %d: %s", code, errOut)
	}
	if !strings.HasPrefix(first, "WORKER on 4 nodes, DirnH2SNB (C software)\n") {
		t.Fatalf("report header:\n%s", first)
	}
	if _, second, _ := swexrun(t); second != first {
		t.Fatalf("two identical runs reported differently:\n%s\nvs\n%s", first, second)
	}
}

func TestExportDeterministicJSON(t *testing.T) {
	var exports [2][]byte
	for i := range exports {
		path := filepath.Join(t.TempDir(), "trace.json")
		if code, _, errOut := swexrun(t, "-export", path); code != 0 {
			t.Fatalf("-export exited %d: %s", code, errOut)
		}
		var err error
		if exports[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Fatal("identical runs exported different traces")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(exports[0], &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export holds no trace events")
	}
}

func TestCritpathTables(t *testing.T) {
	code, out, errOut := swexrun(t, "-critpath")
	if code != 0 {
		t.Fatalf("-critpath exited %d: %s", code, errOut)
	}
	for _, header := range []string{
		"Critical-path split of observed latency",
		"Per-flow component work",
	} {
		if !strings.Contains(out, header) {
			t.Fatalf("-critpath output lacks %q:\n%s", header, out)
		}
	}
}

func TestTraceTail(t *testing.T) {
	code, out, errOut := swexrun(t, "-trace", "5")
	if code != 0 {
		t.Fatalf("-trace exited %d: %s", code, errOut)
	}
	_, tail, ok := strings.Cut(out, " trace events ")
	if !ok {
		t.Fatalf("-trace printed no event header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSuffix(tail, "\n"), "\n")[1:]
	if len(lines) == 0 || len(lines) > 5 {
		t.Fatalf("-trace 5 printed %d event lines:\n%s", len(lines), tail)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-software", "foo"},
		{"-protocol", "no-such-protocol"},
		{"fig2-point"},
	} {
		code, out, errOut := swexrun(t, args...)
		if code != 2 {
			t.Errorf("swexrun %q exited %d, want 2", args, code)
		}
		if out != "" || strings.Count(errOut, "\n") != 1 {
			t.Errorf("swexrun %q: stdout %q, stderr %q; want one stderr line", args, out, errOut)
		}
	}
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("swexrun without -app or -worker exited %d, want 2", code)
	}
}
