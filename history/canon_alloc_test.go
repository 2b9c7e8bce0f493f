package history_test

import (
	"math/rand"
	"testing"

	"repro/history"
	"repro/sim"
)

// allocHistories draws the fixed set the allocation gate measures: 24-op,
// 4-processor simulator runs like the service's fresh-miss checks, dealt
// over all nine memories.
func allocHistories(n int) []*history.System {
	rng := rand.New(rand.NewSource(1))
	out := make([]*history.System, n)
	for i := range out {
		mems := sim.Memories(4)
		out[i] = sim.RandomRun(mems[i%len(mems)], rng, sim.RandomRunConfig{
			Ops: 24, MaxWrites: 10, DataLocs: []history.Loc{"x", "y", "z"},
			PInternal: 0.5, DrainAtEnd: true,
		})
	}
	return out
}

// maxCanonAllocs is the TestCanonicalizeAllocs ceiling: 34.05 measured
// (the same under -race, as nothing here is pooled), plus 10% headroom.
// Before the canonical text was rendered once it was 179.91, and before
// a System stopped keeping a location-index map, 36.04.
const maxCanonAllocs = 38

// TestCanonicalizeAllocs gates the mallocs of Canonicalize plus Format of
// the canonical System, averaged over a fixed set of histories. The count
// is exact for a given program, so a change that adds allocations to the
// canonical key fails here rather than in a timing.
func TestCanonicalizeAllocs(t *testing.T) {
	hs := allocHistories(100)
	var sink string
	total := 0.0
	for _, s := range hs {
		total += testing.AllocsPerRun(5, func() {
			canon, _, err := history.Canonicalize(s)
			if err != nil {
				t.Fatal(err)
			}
			sink = history.Format(canon)
		})
	}
	_ = sink
	per := total / float64(len(hs))
	t.Logf("Canonicalize+Format: %.2f mallocs per history (ceiling %d)", per, maxCanonAllocs)
	if per > maxCanonAllocs {
		t.Errorf("Canonicalize+Format makes %.2f mallocs per history, ceiling %d", per, maxCanonAllocs)
	}
}
