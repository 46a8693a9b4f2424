package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"swex"
)

// swexCmd runs the command in process and returns its exit status and
// streams.
func swexCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestCachedRunsAreIdenticalAndWarmExecutesNothing(t *testing.T) {
	dir := t.TempDir()
	fig2 := []string{"-quick", "-workers", "2", "-cache", dir, "fig2"}

	code, cold, coldErr := swexCmd(t, fig2...)
	if code != 0 {
		t.Fatalf("cold run exited %d: %s", code, coldErr)
	}
	if !strings.HasPrefix(cold, "== fig2: ") {
		t.Fatalf("cold stdout lacks the exhibit header:\n%s", cold)
	}
	if regexp.MustCompile(`\([0-9.]+s\)`).MatchString(cold) {
		t.Fatalf("wall time leaked into stdout:\n%s", cold)
	}
	if !strings.Contains(coldErr, "swex: fig2: 14 job(s), 14 executed, 0 from cache") {
		t.Fatalf("cold stderr = %q", coldErr)
	}

	code, warm, warmErr := swexCmd(t, fig2...)
	if code != 0 {
		t.Fatalf("warm run exited %d: %s", code, warmErr)
	}
	if warm != cold {
		t.Fatalf("warm stdout differs from cold:\n%s\nvs\n%s", warm, cold)
	}
	if !strings.Contains(warmErr, " 0 executed") {
		t.Fatalf("warm run executed simulations: %q", warmErr)
	}

	if code, _, errOut := swexCmd(t, "-status", "-cache", dir); code != 0 {
		t.Fatalf("-status on a clean cache exited %d: %s", code, errOut)
	}
	if code, out, errOut := swexCmd(t, "-cache", dir, "compact"); code != 0 || !strings.Contains(out, "manifest compacted") {
		t.Fatalf("compact exited %d: %q %q", code, out, errOut)
	}
	code, again, againErr := swexCmd(t, fig2...)
	if code != 0 || again != cold || !strings.Contains(againErr, " 0 executed") {
		t.Fatalf("run after compact: exit %d, identical=%v, stderr %q", code, again == cold, againErr)
	}
}

func TestList(t *testing.T) {
	code, out, errOut := swexCmd(t, "-quick", "-list", "fig2")
	if code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if lines[0] != "# fig2: WORKER protocol performance vs worker-set size" {
		t.Fatalf("-list header = %q", lines[0])
	}
	jobLine := regexp.MustCompile(`^[0-9a-f]{16}  WORKER\(`)
	for _, l := range lines[1:] {
		if !jobLine.MatchString(l) {
			t.Fatalf("malformed job line %q", l)
		}
	}
	if got, want := len(lines)-1, len(swex.Figure2Jobs(swex.Options{Quick: true})); got != want || got != 14 {
		t.Fatalf("-list printed %d job lines, want %d (14)", got, want)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"no-such-exhibit"},
		{},
		{"-status"},
		{"-no-such-flag", "fig2"},
	} {
		if code, _, _ := swexCmd(t, args...); code != 2 {
			t.Errorf("swex %q exited %d, want 2", args, code)
		}
	}
}

func TestJSON(t *testing.T) {
	code, out, errOut := swexCmd(t, "-quick", "-json", "fig2")
	if code != 0 {
		t.Fatalf("-json exited %d: %s", code, errOut)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, out)
	}
	if _, ok := got["fig2"]; !ok || len(got) != 1 {
		t.Fatalf("-json keys = %v, want just fig2", got)
	}
}
