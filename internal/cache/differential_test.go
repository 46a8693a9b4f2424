package cache

import (
	"fmt"
	"testing"

	"swex/internal/mem"
	"swex/internal/sim"
)

// flatCache is the reference model for the paged Cache: the same
// replacement policy over one eagerly allocated line array, with no page
// table. The differential test below drives both with one operation
// stream and requires identical answers at every step.
type flatCache struct {
	ways, sets, victimLines int
	slots                   []Line // sets*ways; within a set, index 0 is MRU
	victim                  []Line // LRU order: index 0 = most recent
	stats                   Stats
}

func newFlat(cfg Config) *flatCache {
	ways := max(cfg.Ways, 1)
	return &flatCache{ways: ways, sets: cfg.Lines / ways, victimLines: cfg.VictimLines,
		slots: make([]Line, cfg.Lines)}
}

func (f *flatCache) set(b mem.Block) []Line {
	i := int(uint64(b)%uint64(f.sets)) * f.ways
	return f.slots[i : i+f.ways]
}

func (f *flatCache) way(set []Line, b mem.Block) int {
	for w := range set {
		if set[w].State != Invalid && set[w].Block == b {
			return w
		}
	}
	return -1
}

func (f *flatCache) victimIndex(b mem.Block) int {
	for i := range f.victim {
		if f.victim[i].State != Invalid && f.victim[i].Block == b {
			return i
		}
	}
	return -1
}

func toFront(s []Line, i int) {
	l := s[i]
	copy(s[1:i+1], s[:i])
	s[0] = l
}

func (f *flatCache) lookup(b mem.Block, instruction bool) (Line, bool) {
	set := f.set(b)
	hit := func(victim bool) {
		switch {
		case instruction:
			f.stats.IHits++
		case victim:
			f.stats.VictimHits++
			f.stats.Hits++
		default:
			f.stats.Hits++
		}
	}
	if w := f.way(set, b); w >= 0 {
		toFront(set, w)
		hit(false)
		return set[0], true
	}
	if i := f.victimIndex(b); i >= 0 {
		hit(true)
		promoted, lru := f.victim[i], len(set)-1
		if set[lru].State != Invalid {
			f.victim[i] = set[lru]
			toFront(f.victim, i)
		} else {
			f.victim = append(f.victim[:i], f.victim[i+1:]...)
		}
		set[lru] = promoted
		toFront(set, lru)
		return set[0], true
	}
	if instruction {
		f.stats.IMisses++
	} else {
		f.stats.Misses++
	}
	return Line{}, false
}

func (f *flatCache) evict(l Line) {
	f.stats.Evictions++
	if l.Dirty {
		f.stats.DirtyEvict++
	}
}

func (f *flatCache) insert(l Line) (Line, bool) {
	set := f.set(l.Block)
	if w := f.way(set, l.Block); w >= 0 {
		set[w] = l
		toFront(set, w)
		return Line{}, false
	}
	if i := f.victimIndex(l.Block); i >= 0 {
		f.victim = append(f.victim[:i], f.victim[i+1:]...)
	}
	for w := range set {
		if set[w].State == Invalid {
			set[w] = l
			toFront(set, w)
			return Line{}, false
		}
	}
	lru := len(set) - 1
	displaced := set[lru]
	set[lru] = l
	toFront(set, lru)
	if f.victimLines == 0 {
		f.evict(displaced)
		return displaced, true
	}
	var out Line
	if len(f.victim) < f.victimLines {
		f.victim = append(f.victim, Line{})
	} else {
		out = f.victim[len(f.victim)-1]
		if out.State != Invalid {
			f.evict(out)
		}
	}
	copy(f.victim[1:], f.victim[:len(f.victim)-1])
	f.victim[0] = displaced
	return out, out.State != Invalid
}

func (f *flatCache) invalidate(b mem.Block) (Line, bool) {
	set := f.set(b)
	if w := f.way(set, b); w >= 0 {
		l := set[w]
		set[w] = Line{}
		return l, true
	}
	if i := f.victimIndex(b); i >= 0 {
		l := f.victim[i]
		f.victim = append(f.victim[:i], f.victim[i+1:]...)
		return l, true
	}
	return Line{}, false
}

func (f *flatCache) peek(b mem.Block) (Line, bool) {
	if w := f.way(f.set(b), b); w >= 0 {
		return f.set(b)[w], true
	}
	if i := f.victimIndex(b); i >= 0 {
		return f.victim[i], true
	}
	return Line{}, false
}

func (f *flatCache) flush() []Line {
	var dirty []Line
	for _, s := range [][]Line{f.slots, f.victim} {
		for _, l := range s {
			if l.State != Invalid && l.Dirty {
				dirty = append(dirty, l)
			}
		}
	}
	clear(f.slots)
	f.victim = f.victim[:0]
	return dirty
}

func (f *flatCache) resident() int {
	n := 0
	for _, s := range [][]Line{f.slots, f.victim} {
		for _, l := range s {
			if l.State != Invalid {
				n++
			}
		}
	}
	return n
}

// TestPagedMatchesFlat drives the paged cache and the flat reference with
// one random stream of Insert/Lookup/Invalidate/Peek/Flush over each
// geometry the simulator builds (and set counts that are not a multiple
// of the page size), comparing every returned line, eviction,
// the statistics and the resident count after each step. Blocks are drawn
// from a range four times the cache, so sets conflict and early reads
// fall on absent pages.
func TestPagedMatchesFlat(t *testing.T) {
	geometries := []Config{
		{Lines: 4096},
		{Lines: 64},
		{Lines: 64, Ways: 4},
		{Lines: 4096, VictimLines: 4},
		{Lines: 64, VictimLines: 8},
		{Lines: 96, Ways: 3},
		{Lines: 195, Ways: 3},                 // 65 sets: 2-set pages, the last one partial
		{Lines: 195, Ways: 3, VictimLines: 4}, // the same with victim promotions
		{Lines: 8, VictimLines: 1},
	}
	for _, cfg := range geometries {
		t.Run(fmt.Sprintf("%dL%dW%dV", cfg.Lines, cfg.Ways, cfg.VictimLines), func(t *testing.T) {
			steps := min(20_000, 16_000_000/cfg.Lines) // Resident walks every line
			for seed := uint64(1); seed <= 4; seed++ {
				diffRun(t, cfg, seed, steps)
			}
		})
	}
}

func diffRun(t *testing.T, cfg Config, seed uint64, steps int) {
	t.Helper()
	c, f := New(cfg), newFlat(cfg)
	rng := sim.NewRand(seed)
	span := uint64(4 * cfg.Lines)
	for step := 0; step < steps; step++ {
		b := mem.Block(rng.Uint64() % span)
		op := rng.Uint64() % 100
		where := func(what string) string {
			return fmt.Sprintf("seed %d step %d: %s(%d)", seed, step, what, b)
		}
		switch {
		case op < 40:
			l := Line{Block: b, State: Shared, Words: [mem.WordsPerBlock]uint64{uint64(step)}}
			if op%3 == 0 {
				l.State, l.Dirty = Exclusive, true
			}
			gotL, gotOK := c.Insert(l)
			wantL, wantOK := f.insert(l)
			if gotOK != wantOK || gotL != wantL {
				t.Fatalf("%s evicted %+v/%v, want %+v/%v", where("Insert"), gotL, gotOK, wantL, wantOK)
			}
		case op < 75:
			instruction := op%2 == 0
			got, gotOK := c.Lookup(b, instruction)
			want, wantOK := f.lookup(b, instruction)
			if gotOK != wantOK || (gotOK && *got != want) {
				t.Fatalf("%s = %v/%v, want %+v/%v", where("Lookup"), got, gotOK, want, wantOK)
			}
		case op < 88:
			gotL, gotOK := c.Invalidate(b)
			wantL, wantOK := f.invalidate(b)
			if gotOK != wantOK || gotL != wantL {
				t.Fatalf("%s = %+v/%v, want %+v/%v", where("Invalidate"), gotL, gotOK, wantL, wantOK)
			}
		case op < 99:
			gotL, gotOK := c.Peek(b)
			wantL, wantOK := f.peek(b)
			if gotOK != wantOK || gotL != wantL {
				t.Fatalf("%s = %+v/%v, want %+v/%v", where("Peek"), gotL, gotOK, wantL, wantOK)
			}
		default:
			got, want := c.Flush(), f.flush()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s = %v, want %v", where("Flush"), got, want)
			}
		}
		if c.Stats != f.stats {
			t.Fatalf("%s: stats %+v, want %+v", where("after"), c.Stats, f.stats)
		}
		if got, want := c.Resident(), f.resident(); got != want {
			t.Fatalf("%s: Resident %d, want %d", where("after"), got, want)
		}
	}
}

// TestMissNeverAllocates pins the paging rule: reads and invalidations of
// blocks whose page was never written allocate nothing and leave the page
// absent, and the first Insert materializes exactly one page.
func TestMissNeverAllocates(t *testing.T) {
	c := New(DefaultConfig())
	allocs := testing.AllocsPerRun(100, func() {
		for b := mem.Block(0); b < 4096; b += 61 {
			c.Lookup(b, false)
			c.Lookup(b, true)
			c.Peek(b)
			c.Invalidate(b)
		}
	})
	if allocs != 0 {
		t.Fatalf("misses allocated %.0f times per pass, want 0", allocs)
	}
	c.Insert(Line{Block: 5, State: Shared})
	present := 0
	for _, page := range c.pages {
		if page != nil {
			present++
		}
	}
	if present != 1 {
		t.Fatalf("%d pages present after one Insert, want 1", present)
	}
}
