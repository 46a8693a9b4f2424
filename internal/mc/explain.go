package mc

import (
	"bytes"
	"fmt"

	"swex/internal/proto"
)

// Explain replays a violation's trace on a fresh world and renders a
// numbered narrative: each choice — scheduling steps annotated with the
// event they fired — followed by the protocol messages it sent and the
// ones the fault filter dropped. The replay wraps the world's
// Fabric.Fault filter, which sees every message before injection, so the
// recording needs no hook of its own. At zero latency every message is
// sent at cycle zero, so no cycle is rendered. The replay is
// deterministic, so the narrative describes exactly the execution the
// checker found.
func Explain(cfg Config, v *Violation) (string, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return "", err
	}
	var msgs []string
	drop := w.fabric.Fault
	w.fabric.Fault = func(m proto.Msg) bool {
		if drop != nil && drop(m) {
			msgs = append(msgs, "drop "+m.String())
			return true
		}
		msgs = append(msgs, "msg "+m.String())
		return false
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "counterexample (%s): %s violated\n", cfg.Spec.Name, v.Invariant)
	for i, c := range v.Trace {
		desc := c.String()
		if c.Step {
			if p := w.fabric.PendingDescriptions(); len(p) > 0 {
				desc = "step: " + p[0]
			}
		}
		msgs = msgs[:0]
		w.apply(c)
		fmt.Fprintf(&buf, "%3d. %s\n", i+1, desc)
		for _, e := range msgs {
			fmt.Fprintf(&buf, "       %s\n", e)
		}
	}
	fmt.Fprintf(&buf, "  => %s\n", v.Detail)
	return buf.String(), nil
}
