package explore

import (
	"runtime"
	"testing"

	"repro/algorithms"
	"repro/program"
	"repro/sim"
)

// TestGoldenStateSpaceCounts pins the complete Bakery(2,1) state space on
// every simulator. A fingerprint change that merges distinct states or
// splits equal ones moves these counts.
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
		mem := c.mk()
		res, err := Exhaustive(bakeryMachine(t, mem, 2, true), Options{TrackProgress: true})
		if err != nil {
			t.Fatal(err)
		}
		got := counts{res.States, res.Transitions, res.TerminalStates, res.StuckStates, len(res.Violations)}
		if !res.Complete || got != c.want {
			t.Errorf("%s: complete=%v states/transitions/terminal/stuck/violations = %v, want %v",
				mem.Name(), res.Complete, got, c.want)
		}
	}
}

// maxMallocsPerTransition gates TestExploreMallocsPerTransition.
const maxMallocsPerTransition = 0.36

// TestExploreMallocsPerTransition gates the explorer's allocation rate, a
// count that does not depend on timing: exploring Bakery(2,1) on RCpc, the
// search must stay at or below maxMallocsPerTransition heap allocations
// per explored transition. A transition costs no allocation: a known
// successor builds a tuple in a reused buffer, and an unknown one is
// stepped in a reused machine. Most of what is left is one copy of each
// distinct memory state, kept as its representative, then the 28
// violations' errors and the pages of the tables; no violation is built
// unless replayed. It measures 0.331 (0.342 under -race).
func TestExploreMallocsPerTransition(t *testing.T) {
	m := bakeryMachine(t, sim.NewRCpc(2), 2, true)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Exhaustive(m, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(after.Mallocs-before.Mallocs) / float64(res.Transitions)
	t.Logf("%d transitions, %.3f mallocs per transition", res.Transitions, per)
	if per > maxMallocsPerTransition {
		t.Errorf("%.3f mallocs per transition, want <= %.2f", per, maxMallocsPerTransition)
	}
}

// TestGoldenKeyBytes pins Result.KeyBytes, the exact size of the visited
// set and the component tables, for complete Bakery(2,1) and Bakery(2,2)
// explorations on RCpc. The visited set's tuples are fixed-width ids, and
// every location id in a memory key is below 128, so it takes one byte:
// the figure is the same on every host. A change to the key encoding or
// the tables' layout moves it; the successor tables are not counted. Of
// Bakery(2,2)'s 2,426,374 bytes, the visited set holds 2,061,952 (12 B
// of tuple per state and 2^17 slots).
func TestGoldenKeyBytes(t *testing.T) {
	for _, c := range []struct {
		rounds, states, keyBytes int
	}{
		{1, 2425, 88033},
		{2, 84448, 2426374},
	} {
		m, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, c.rounds, true))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exhaustive(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Bakery(2,%d) RCpc: %d states, %d key bytes, %.1f per state",
			c.rounds, res.States, res.KeyBytes, float64(res.KeyBytes)/float64(res.States))
		if !res.Complete || res.States != c.states || res.KeyBytes != c.keyBytes {
			t.Errorf("Bakery(2,%d) RCpc: complete=%v states=%d key bytes=%d, want complete %d/%d",
				c.rounds, res.Complete, res.States, res.KeyBytes, c.states, c.keyBytes)
		}
	}
}

// TestMaxStatesOvershoot records, without fixing, how far the search runs
// past Options.MaxStates on Bakery(2,2) RCpc. It counts a state when it
// takes it off its stack, stops expanding once the count reaches the cap,
// and still counts every state already on the stack: the unexpanded
// siblings along the current path. The figure is exact and deterministic.
func TestMaxStatesOvershoot(t *testing.T) {
	const maxStates, want = 5000, 5032
	m, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exhaustive(m, Options{MaxStates: maxStates})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cap %d, %d states (%+.1f%%), %d key bytes", maxStates, res.States,
		100*float64(res.States-maxStates)/maxStates, res.KeyBytes)
	if res.Complete || res.Incomplete != IncompleteMaxStates || res.States != want {
		t.Errorf("complete=%v reason=%v states=%d, want truncated by max states at %d",
			res.Complete, res.Incomplete, res.States, want)
	}
}
