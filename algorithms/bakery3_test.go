//go:build explorerbound

package algorithms

import (
	"context"
	"testing"

	"repro/explore"
	"repro/model"
	"repro/program"
	"repro/sim"
)

// TestBakeryThreeProcessorsRCpcComplete searches Bakery(3,1) on RCpc to
// the end: 24,970,126 states, of which 481,728 violate mutual exclusion.
// The search counts its violations and builds none; the first three are
// replayed, and each history must be one RCpc allows and RCsc forbids,
// the paper's Section 5 argument at n = 3. It takes about a minute and
// 2 GB, so it runs only under the explorerbound build tag, in CI's
// explorer memory step, under a 4 GB address-space cap:
//
//	ulimit -v 4000000
//	go test -tags explorerbound -count=1 -run 'TestBakeryThreeProcessorsRCpcComplete$' ./algorithms
func TestBakeryThreeProcessorsRCpcComplete(t *testing.T) {
	m, err := program.NewMachine(sim.NewRCpc(3), Bakery(3, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.Exhaustive(m, explore.Options{MaxStates: 1 << 25})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.States != 24_970_126 || res.Transitions != 154_546_429 ||
		res.TerminalStates != 205 || len(res.Violations) != 481_728 {
		t.Fatalf("Bakery n=3 on RCpc: complete=%v %d states, %d transitions, %d terminal, %d violations; want complete, 24970126/154546429/205/481728",
			res.Complete, res.States, res.Transitions, res.TerminalStates, len(res.Violations))
	}
	for i, v := range res.Violations[:3] {
		_, state, err := v.Replay()
		if err != nil {
			t.Fatalf("violation %d: %v", i, err)
		}
		h := state.Mem().Recorder().System()
		rcpc, err := model.RCpc.Allows(context.Background(), h)
		if err != nil || !rcpc.Allowed {
			t.Errorf("violation %d: RCpc allowed=%v err=%v:\n%s", i, rcpc.Allowed, err, h)
		}
		rcsc, err := model.RCsc.Allows(context.Background(), h)
		if err != nil || rcsc.Allowed {
			t.Errorf("violation %d: RCsc allowed=%v err=%v:\n%s", i, rcsc.Allowed, err, h)
		}
	}
}
