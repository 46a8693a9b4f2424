package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"sort"
)

// Baseline is the committed ratchet of known hot-path allocation sites
// (lint-baseline.json at the module root). Each key is
// "<pkg>.<func>/<kind>" — position-free, so unrelated edits do not churn
// the file — and the value is how many sites of that kind the function is
// allowed to contain. The ratchet moves one way: swexlint fails when a
// key's live count exceeds its baselined count, and the staleness check
// (Diff) fails when the baseline records sites that no longer exist,
// forcing a -write-baseline that can only shrink the committed totals.
type Baseline struct {
	// Sites maps ratchet key to the allowed number of allocation sites.
	Sites map[string]int `json:"sites"`

	// path and data are the file the baseline was loaded from, kept so
	// stale-entry diagnostics can point at the entry's line.
	path string
	data []byte
}

// position locates key's entry in the loaded baseline file; a baseline
// built in memory reports BaselineFile with no line.
func (b *Baseline) position(key string) token.Position {
	if b.path == "" {
		return token.Position{Filename: BaselineFile}
	}
	kb, _ := json.Marshal(key)
	i := bytes.Index(b.data, kb)
	if i < 0 {
		return token.Position{Filename: b.path}
	}
	return token.Position{
		Filename: b.path,
		Line:     1 + bytes.Count(b.data[:i], []byte("\n")),
		Column:   i - bytes.LastIndexByte(b.data[:i], '\n'),
	}
}

// BaselineFile is the canonical name of the committed ratchet file,
// relative to the module root.
const BaselineFile = "lint-baseline.json"

// ComputeBaseline scans the module and returns the baseline that exactly
// matches the current hot-path allocation sites.
func ComputeBaseline(cfg *Config, pkgs []*Package) *Baseline {
	b := &Baseline{Sites: make(map[string]int)}
	for _, s := range HotAllocSites(cfg, pkgs) {
		b.Sites[s.Key]++
	}
	return b
}

// Total returns the number of baselined allocation sites across all keys.
func (b *Baseline) Total() int {
	n := 0
	for _, c := range b.Sites {
		n += c
	}
	return n
}

// LoadBaseline reads a baseline file. A missing file is not an error: it
// returns (nil, nil) so callers can distinguish "no ratchet configured"
// from a malformed one.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %v", path, err)
	}
	if b.Sites == nil {
		b.Sites = make(map[string]int)
	}
	b.path, b.data = path, data
	return &b, nil
}

// WriteFile writes the baseline as deterministic, human-diffable JSON:
// keys sorted, one site per line, trailing newline.
func (b *Baseline) WriteFile(path string) error {
	return os.WriteFile(path, b.MarshalIndent(), 0o644)
}

// MarshalIndent renders the baseline with sorted keys, one per line.
func (b *Baseline) MarshalIndent() []byte {
	keys := make([]string, 0, len(b.Sites))
	for k := range b.Sites {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []byte("{\n  \"sites\": {\n")
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		kb, _ := json.Marshal(k)
		out = append(out, fmt.Sprintf("    %s: %d%s\n", kb, b.Sites[k], sep)...)
	}
	out = append(out, "  }\n}\n"...)
	return out
}

// Diff compares this (committed) baseline against the current scan and
// returns human-readable regressions and staleness findings. Regressions
// are keys whose live count exceeds the allowance; stale entries are keys
// whose live count dropped below (or vanished from) the allowance and
// must be re-ratcheted down with -write-baseline so improvements lock in.
func (b *Baseline) Diff(current *Baseline) (regressions, stale []string) {
	keys := make(map[string]bool)
	for k := range b.Sites {
		keys[k] = true
	}
	for k := range current.Sites {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		was, now := b.Sites[k], current.Sites[k]
		switch {
		case now > was:
			regressions = append(regressions, fmt.Sprintf("%s: baseline %d, found %d", k, was, now))
		case now < was:
			stale = append(stale, fmt.Sprintf("%s: baseline %d, found %d", k, was, now))
		}
	}
	return regressions, stale
}
