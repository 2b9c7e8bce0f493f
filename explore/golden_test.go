package explore

import (
	"runtime"
	"testing"

	"repro/algorithms"
	"repro/program"
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

// maxMallocsPerTransition gates TestExploreMallocsPerTransition, by
// worker count.
var maxMallocsPerTransition = map[int]float64{1: 0.5, 2: 0.65}

// TestExploreMallocsPerTransition gates the explorer's allocation rate, a
// count that does not depend on timing: exploring Bakery(2,1) on RCpc, the
// sequential search and the two-worker parallel one must each stay at or
// below their maxMallocsPerTransition heap allocations per explored
// transition. A transition costs no allocation: a memo hit builds a tuple
// in a reused buffer, and a miss is stepped in a reused machine. Most of
// what is left is one copy of each distinct memory state, kept as its
// representative, then the steps of kept states and the walk that reports
// the 28 violations. At two workers, a worker copies each memory state the
// tables do not hold yet, and several nodes of one chunk may reach the
// same one; the copies settling does not keep are reused. They measure
// 0.46 and 0.59–0.62, and 0.48 and 0.61 under -race.
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
		t.Logf("workers=%d: %d transitions, %.3f mallocs per transition", workers, res.Transitions, per)
		if max := maxMallocsPerTransition[workers]; per > max {
			t.Errorf("workers=%d: %.3f mallocs per transition, want <= %.2f", workers, per, max)
		}
	}
}

// TestGoldenKeyBytes pins Result.KeyBytes, the exact size of the visited
// set and the component tables, for complete Bakery(2,1) and Bakery(2,2)
// explorations on RCpc at the sequential and the two-worker search. The
// visited set's tuples are fixed-width ids, and every location id in a
// memory key is below 128, so it takes one byte whatever order the workers
// numbered the locations in: the figure is the same at both worker counts
// and on every host. A change to the key encoding or the tables' layout
// moves it. Of Bakery(2,2)'s 2,426,374 bytes, the visited set holds
// 2,061,952 (12 B of tuple per state and 2^17 slots).
func TestGoldenKeyBytes(t *testing.T) {
	for _, c := range []struct {
		rounds, states, keyBytes int
	}{
		{1, 2425, 88033},
		{2, 84448, 2426374},
	} {
		for _, workers := range []int{1, 2} {
			m, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, c.rounds, true))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Exhaustive(m, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("Bakery(2,%d) RCpc workers=%d: %d states, %d key bytes, %.1f per state",
				c.rounds, workers, res.States, res.KeyBytes, float64(res.KeyBytes)/float64(res.States))
			if !res.Complete || res.States != c.states || res.KeyBytes != c.keyBytes {
				t.Errorf("Bakery(2,%d) RCpc workers=%d: complete=%v states=%d key bytes=%d, want complete %d/%d",
					c.rounds, workers, res.Complete, res.States, res.KeyBytes, c.states, c.keyBytes)
			}
		}
	}
}

// TestMaxStatesOvershoot records, without fixing, how far each search
// runs past Options.MaxStates on Bakery(2,2) RCpc. Both count a state when
// they take it off their worklist, stop expanding once the count reaches
// the cap, and still count every state already on the worklist: the
// depth-first stack holds the unexpanded siblings along the current path,
// the breadth-first search the rest of the current level and the next
// level's states found so far. The figures are exact and deterministic.
func TestMaxStatesOvershoot(t *testing.T) {
	const maxStates = 5000
	want := map[int]int{1: 5032, 2: 5997}
	for _, workers := range []int{1, 2} {
		m, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, 2, true))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exhaustive(m, Options{Workers: workers, MaxStates: maxStates})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("workers=%d: cap %d, %d states (%+.1f%%), %d key bytes", workers, maxStates, res.States,
			100*float64(res.States-maxStates)/maxStates, res.KeyBytes)
		if res.Complete || res.Incomplete != IncompleteMaxStates || res.States != want[workers] {
			t.Errorf("workers=%d: complete=%v reason=%v states=%d, want truncated by max states at %d",
				workers, res.Complete, res.Incomplete, res.States, want[workers])
		}
	}
}
