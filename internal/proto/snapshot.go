package proto

import (
	"bytes"
	"fmt"
	"sort"

	"swex/internal/mem"
)

// Snapshot serializes the logically observable machine state for the given
// blocks into a canonical byte string: two machines with equal snapshots
// are in the same protocol state and, driven identically, will behave
// identically. The model checker (internal/mc) uses the snapshot as the
// key of its visited set.
//
// The encoding deliberately abstracts three things away so that logically
// identical states reached through different histories compare equal:
//
//   - Statistics (counters, trap counts, retry counts, worker-set maxima)
//     are excluded: they record history, not state.
//   - Directory epochs are encoded relative to the entry's current epoch
//     (an in-flight acknowledgment matters only through whether its epoch
//     matches the entry's), so histories with different transaction counts
//     still merge.
//   - Event firing times are excluded: the checker runs the machine with
//     zero-latency timing (mesh.ZeroLatency, zero Timing), so simulated
//     time is frozen at cycle zero and only the firing *order* of pending
//     events — which the encoding preserves — determines behavior.
//
// Pending events appear through their inspection tags: in-flight messages
// (tagged with the fabric's registry entries) and software handler
// completions/retries (tagged by the scheduling sites in home.go and
// cachectl.go). An untagged pending event encodes as "?"; the model
// checker's worlds never schedule one, but the encoding stays total.
func (f *Fabric) Snapshot(blocks []mem.Block) []byte {
	sorted := make([]mem.Block, len(blocks))
	copy(sorted, blocks)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var buf bytes.Buffer
	for _, b := range sorted {
		f.snapBlock(&buf, b)
	}
	for i := 0; i < f.Nodes(); i++ {
		f.snapNode(&buf, mem.NodeID(i), sorted)
	}
	f.snapPending(&buf)
	return buf.Bytes()
}

// snapBlock encodes the home-side state of one block.
func (f *Fabric) snapBlock(buf *bytes.Buffer, b mem.Block) {
	h := f.homes[mem.HomeOfBlock(b)]
	fmt.Fprintf(buf, "B%d{", b)
	if e, ok := h.dir.Peek(b); ok {
		fmt.Fprintf(buf, "st=%d ptrs=%v lb=%v own=%d ack=%d req=%d/%v swx=%v rb=%v bb=%v",
			int(e.State), e.Ptrs.List(), e.LocalBit, e.Owner, e.AckCount,
			e.Req, e.ReqWrite, e.SwExt, e.RemoteBit, e.BroadcastBit)
	}
	rb := h.batches[b]
	fmt.Fprintf(buf, " swtxn=%v swr=%d", h.swTxn[b], rb.segments)
	if rb.queued {
		fmt.Fprintf(buf, " pw=%d", rb.pendingWrite)
	}
	if st, ok := h.mig[b]; ok && f.MigratoryDetect {
		fmt.Fprintf(buf, " mig=%d/%v/%d/%v/%v",
			st.lastWriter, st.haveWriter, st.score, st.migratory, st.lastGrantRead)
	}
	if f.Soft != nil {
		fmt.Fprintf(buf, " soft=%v", f.Soft.SharersOf(b))
	}
	fmt.Fprintf(buf, " mem=%v}", f.Mem.ReadBlock(b))
}

// snapNode encodes one node's cache-side state for the tracked blocks.
func (f *Fabric) snapNode(buf *bytes.Buffer, id mem.NodeID, blocks []mem.Block) {
	cc := f.caches[id]
	fmt.Fprintf(buf, "N%d{", id)
	for _, b := range blocks {
		if l, ok := cc.c.Peek(b); ok {
			fmt.Fprintf(buf, "c%d=%d/%v/%v ", b, int(l.State), l.Dirty, l.Words)
		}
		if t, ok := cc.txns[b]; ok {
			fmt.Fprintf(buf, "t%d=%v[", b, t.write)
			for _, w := range t.waiters {
				fmt.Fprintf(buf, "(%d %v %d %v %v", w.addr, w.op.Write, w.op.Value, w.op.RMW != nil, w.checkout)
				if w.watch {
					// Appended rather than unconditional so fingerprints
					// of watch-free histories keep their PR 3 encodings.
					fmt.Fprintf(buf, " w")
				}
				fmt.Fprintf(buf, ")")
			}
			fmt.Fprintf(buf, "] ")
		}
		if ws := cc.watchers[b]; len(ws) > 0 {
			// Parked watchers are logical state: which address each waits
			// on and which value it expects to change determine whether a
			// future coherence event completes or re-parks it, so a bare
			// count would merge states that diverge.
			fmt.Fprintf(buf, "w%d=[", b)
			for _, w := range ws {
				fmt.Fprintf(buf, "(%d %d)", w.addr, w.old)
			}
			fmt.Fprintf(buf, "] ")
		}
	}
	// Outstanding directoryless accesses, per home in node order. An op's
	// queue position determines which DRESP completes it, so the queues
	// are state. Encoded only when non-empty, so directoryful histories
	// keep their existing bytes.
	for hid := 0; hid < f.Nodes(); hid++ {
		q := cc.direct[mem.NodeID(hid)]
		if len(q) == 0 {
			continue
		}
		fmt.Fprintf(buf, "d%d=[", hid)
		for _, op := range q {
			fmt.Fprintf(buf, "(%v %d %v)", op.Write, op.Value, op.RMW != nil)
		}
		fmt.Fprintf(buf, "] ")
	}
	fmt.Fprintf(buf, "}")
}

// snapPending encodes the engine's pending events in firing order, each
// prefixed by its firing delay relative to the current cycle when that
// delay is non-zero. Order alone is not sufficient once watch re-arms
// enter the picture: a re-arm is scheduled one cycle out (the only
// non-zero delay a zero-latency world ever schedules), so a state where
// the re-arm fires before a newly injected zero-delay event and a state
// where it fires after are different states. Encoding the relative delay
// separates them while leaving delay-free histories byte-identical to
// the order-only encoding.
func (f *Fabric) snapPending(buf *bytes.Buffer) {
	now := f.Engine.Now()
	fmt.Fprintf(buf, "Q[")
	for _, ev := range f.Engine.PendingTagged() {
		if d := ev.At - now; d != 0 {
			fmt.Fprintf(buf, "+%d", d)
		}
		switch tag := ev.Tag.(type) {
		case *flight:
			f.snapMsg(buf, tag.m)
			fmt.Fprintf(buf, ";")
		case *procTag:
			// A message queued at a busy home is encoded exactly like one
			// still in flight, distinguished by the prefix: it carries the
			// same logical content and the same epoch-relativity rules.
			fmt.Fprintf(buf, "P%d:", tag.node)
			f.snapMsg(buf, tag.m)
			fmt.Fprintf(buf, ";")
		case *retryTag:
			fmt.Fprintf(buf, "retry:%d:blk%d:live=%v;", tag.cc.node, tag.b, tag.live())
		case *trapTag:
			// Renders the same bytes the handler's eager label used to
			// carry, so fingerprints of existing histories are unchanged.
			fmt.Fprintf(buf, "%s;", tag.label())
		case *watchTag:
			fmt.Fprintf(buf, "%s;", tag.label())
		case blockTag:
			fmt.Fprintf(buf, "%s;", tag.label)
		case string:
			fmt.Fprintf(buf, "%s;", tag)
		default:
			fmt.Fprintf(buf, "?;")
		}
	}
	fmt.Fprintf(buf, "]")
}

// snapMsg encodes one protocol message canonically. The epoch is encoded
// relative to the entry's current epoch, and only for the kinds whose
// epoch the protocol reads: equality with the entry's current epoch is
// all that matters, and encoding the absolute value (or a delta against
// a request's constant zero) would leak the history-dependent
// transaction count into the fingerprint.
func (f *Fabric) snapMsg(buf *bytes.Buffer, m Msg) {
	var delta uint32
	if m.Kind.CarriesEpoch() {
		delta = f.entryEpoch(m.Block) - m.Epoch
	}
	fmt.Fprintf(buf, "M%d:%d>%d:b%d:e%d", int(m.Kind), m.Src, m.Dst, m.Block, delta)
	if m.Kind.CarriesData() {
		fmt.Fprintf(buf, ":%v", m.Words)
	}
	if m.Kind == MsgDREQ || m.Kind == MsgDRESP {
		// Direct accesses carry a word, an offset, and an operation; all
		// of it determines behavior, so all of it is state. Appended only
		// for the new kinds, so existing encodings keep their bytes.
		fmt.Fprintf(buf, ":o%d:w%v:rmw%v:v%d", m.Off, m.DWrite, m.RMW != nil, m.Words[0])
	}
}

// PendingDescriptions renders the engine's pending events in firing order
// using their inspection tags: "deliver <msg>" for in-flight messages, the
// tag itself for tagged handler completions and retries, "event" for
// untagged events. The model checker's counterexample renderer uses it to
// narrate what each scheduling step fired.
func (f *Fabric) PendingDescriptions() []string {
	var out []string
	for _, ev := range f.Engine.PendingTagged() {
		switch tag := ev.Tag.(type) {
		case *flight:
			out = append(out, "deliver "+tag.m.String())
		case *procTag:
			out = append(out, fmt.Sprintf("proc:%d:%s", tag.node, tag.m.String()))
		case *retryTag:
			out = append(out, fmt.Sprintf("retry node%d blk%d", tag.cc.node, tag.b))
		case *trapTag:
			out = append(out, tag.label())
		case *watchTag:
			out = append(out, tag.label())
		case blockTag:
			out = append(out, tag.label)
		case string:
			out = append(out, tag)
		default:
			out = append(out, "event")
		}
	}
	return out
}

// NextEventBlock reports the block the engine's earliest pending event
// operates on, when its inspection tag identifies one (message delivery,
// busy retry, handler completion, queued home processing, watch re-arm,
// instruction fill). ok is false when nothing is pending or the event is
// untagged. The model checker's partial-order reduction uses it to decide
// whether firing the event can interfere with a slept injection; an
// unidentifiable event must be treated as interfering with everything.
func (f *Fabric) NextEventBlock() (mem.Block, bool) {
	next, ok := f.Engine.NextTag()
	if !ok {
		return 0, false
	}
	switch tag := next.(type) {
	case *flight:
		return tag.m.Block, true
	case *procTag:
		return tag.m.Block, true
	case *retryTag:
		return tag.b, true
	case *trapTag:
		return tag.b, true
	case *watchTag:
		return tag.b, true
	case blockTag:
		return tag.b, true
	}
	return 0, false
}

// entryEpoch returns the current epoch of b's home directory entry (zero
// if the block has never been referenced).
func (f *Fabric) entryEpoch(b mem.Block) uint32 {
	h := f.homes[mem.HomeOfBlock(b)]
	if e, ok := h.dir.Peek(b); ok {
		return e.Epoch
	}
	return 0
}
