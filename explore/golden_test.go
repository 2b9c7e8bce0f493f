package explore

import (
	"runtime"
	"testing"

	"repro/sim"
)

// TestGoldenStateSpaceCounts pins the complete Bakery(2,1) state space on
// every simulator, at both the sequential and the parallel search. A
// fingerprint change that merges distinct states or splits equal ones moves
// these counts.
func TestGoldenStateSpaceCounts(t *testing.T) {
	type counts struct{ states, transitions, terminal, stuck, violations int }
	weak := counts{2425, 6734, 13, 28, 28}
	cases := []struct {
		mk   func() sim.Memory
		want counts
	}{
		{func() sim.Memory { return sim.NewRCpc(2) }, weak},
		{func() sim.Memory { return sim.NewTSO(2) }, weak},
		{func() sim.Memory { return sim.NewPRAM(2) }, weak},
		{func() sim.Memory { return sim.NewRCsc(2) }, counts{258, 429, 9, 0, 0}},
		{func() sim.Memory { return sim.NewSlow(2) }, counts{7343, 24156, 24, 96, 96}},
		{func() sim.Memory { return sim.NewCausal(2) }, counts{7526, 20394, 13, 55, 55}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 0} {
			mem := c.mk()
			res, err := Exhaustive(bakeryMachine(t, mem, 2, true), Options{Workers: workers, TrackProgress: true})
			if err != nil {
				t.Fatal(err)
			}
			got := counts{res.States, res.Transitions, res.TerminalStates, res.StuckStates, len(res.Violations)}
			if !res.Complete || got != c.want {
				t.Errorf("%s workers=%d: complete=%v states/transitions/terminal/stuck/violations = %v, want %v",
					mem.Name(), workers, res.Complete, got, c.want)
			}
		}
	}
}

// TestExploreMallocsPerTransition gates the explorer's allocation rate, a
// count that does not depend on timing: exploring Bakery(2,1) on RCpc, the
// sequential search and the two-worker parallel one must each stay at or
// below maxMallocsPerTransition heap allocations per explored transition.
// Both measure 6.8, and 12.8 under -race; the gates sit about 30% above.
func TestExploreMallocsPerTransition(t *testing.T) {
	for _, workers := range []int{1, 2} {
		m := bakeryMachine(t, sim.NewRCpc(2), 2, true)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Exhaustive(m, Options{Workers: workers})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		per := float64(after.Mallocs-before.Mallocs) / float64(res.Transitions)
		t.Logf("workers=%d: %d transitions, %.1f mallocs per transition", workers, res.Transitions, per)
		if per > maxMallocsPerTransition {
			t.Errorf("workers=%d: %.1f mallocs per transition, want <= %d", workers, per, maxMallocsPerTransition)
		}
	}
}
