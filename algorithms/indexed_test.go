package algorithms

import (
	"testing"

	"repro/explore"
	"repro/program"
	"repro/sim"
)

// TestIndexedLocationCounts explores programs whose locations are
// computed at run time (flag[i] and number[i] through a register index)
// and pins their state spaces. BakeryLoop computes Bakery's locations and
// must reach exactly the state space of Bakery, whose locations are
// constants (explore's TestGoldenStateSpaceCounts).
func TestIndexedLocationCounts(t *testing.T) {
	type counts struct{ states, transitions, terminal, violations int }
	rcpc := func() sim.Memory { return sim.NewRCpc(2) }
	slow := func() sim.Memory { return sim.NewSlow(2) }
	cases := []struct {
		name  string
		progs [][]program.Stmt
		mk    func() sim.Memory
		want  counts
	}{
		{"Szymanski", Szymanski(2, true), rcpc, counts{3998, 11159, 6, 56}},
		{"Szymanski", Szymanski(2, true), slow, counts{3998, 11159, 6, 56}},
		{"BakeryLoop", BakeryLoop(2, 1, true), rcpc, counts{2425, 6734, 13, 28}},
		{"BakeryLoop", BakeryLoop(2, 1, true), slow, counts{7343, 24156, 24, 96}},
	}
	for _, c := range cases {
		mem := c.mk()
		m, err := program.NewMachine(mem, c.progs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := explore.Exhaustive(m, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := counts{res.States, res.Transitions, res.TerminalStates, len(res.Violations)}
		if !res.Complete || got != c.want {
			t.Errorf("%s on %s: complete=%v states/transitions/terminal/violations = %v, want %v",
				c.name, mem.Name(), res.Complete, got, c.want)
		}
	}
}
