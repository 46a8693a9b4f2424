package machine

import (
	"runtime"
	"testing"

	"swex/internal/proto"
)

// TestSmallMachineIsCheap bounds what building a 4-node machine
// allocates, for every protocol of the spectrum. The fuzzer and the model
// checker build thousands of such machines for runs that touch a handful
// of blocks, so construction must not allocate each node's whole
// 4,096-line cache up front.
func TestSmallMachineIsCheap(t *testing.T) {
	const builds, limit = 10, 64 << 10
	for _, spec := range proto.Spectrum() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < builds; i++ {
			MustNew(DefaultConfig(4, spec))
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / builds; per >= limit {
			t.Errorf("%s: a 4-node machine.New allocates %d bytes, want under %d", spec.Name, per, limit)
		}
	}
}
