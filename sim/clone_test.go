package sim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/history"
)

// walk drives m through n random reads, writes and internal actions over
// locs.
func walk(m Memory, rng *rand.Rand, n int, locs []history.Loc) {
	for i := 0; i < n; i++ {
		if in := m.Internal(); len(in) > 0 && rng.Intn(3) == 0 {
			m.Step(rng.Intn(len(in)))
			continue
		}
		p := history.Proc(rng.Intn(m.NumProcs()))
		loc := locs[rng.Intn(len(locs))]
		labeled := rng.Intn(3) == 0
		if rng.Intn(2) == 0 {
			m.Write(p, loc, history.Value(rng.Intn(3)), labeled)
		} else {
			m.Read(p, loc, labeled)
		}
	}
}

// observe renders everything a caller can see of m: its fingerprint, its
// enabled internal actions and its recorded history.
func observe(m Memory) string {
	return fingerprint(m) + "\n" + strings.Join(m.Internal(), "\n") + "\n" + m.Recorder().System().String()
}

// TestCloneIntoMatchesClone checks the storage-reusing copy against the
// allocating one on every simulator. The scratch a memory is copied into
// was dirtied first by a different walk, over other locations and, for odd
// seeds, with another processor count, so its slices hold stale cells and
// queues of other lengths. The copy must be indistinguishable from Clone's
// before and after the same continuation, copying into a used copy again
// must still match, and stepping the copy must leave the original alone.
func TestCloneIntoMatchesClone(t *testing.T) {
	srcLocs := []history.Loc{"x", "y", "flag[0]"}
	dirtyLocs := []history.Loc{"b", "a[1]", "x", "z", "w"}
	for seed := int64(0); seed < 40; seed++ {
		scratches := Memories(2 + int(seed%2))
		for i, src := range Memories(2) {
			name := src.Name()
			walk(src, rand.New(rand.NewSource(seed)), 20, srcLocs)
			scratch := scratches[i]
			walk(scratch, rand.New(rand.NewSource(seed+1000)), 30, dirtyLocs)
			orig := observe(src)

			want := src.Clone()
			got := src.CloneInto(scratch)
			if got != scratch {
				t.Fatalf("%s seed %d: CloneInto did not reuse a scratch of its own kind", name, seed)
			}
			if g, w := observe(got), observe(want); g != w {
				t.Fatalf("%s seed %d: CloneInto copy differs from Clone:\n%s\nwant\n%s", name, seed, g, w)
			}
			walk(got, rand.New(rand.NewSource(seed+2000)), 50, srcLocs)
			walk(want, rand.New(rand.NewSource(seed+2000)), 50, srcLocs)
			if g, w := observe(got), observe(want); g != w {
				t.Fatalf("%s seed %d: copies diverge after the same walk:\n%s\nwant\n%s", name, seed, g, w)
			}
			if observe(src) != orig {
				t.Fatalf("%s seed %d: stepping the copy changed the original", name, seed)
			}
			if g, w := observe(src.CloneInto(got)), observe(src.Clone()); g != w {
				t.Fatalf("%s seed %d: copying into a used copy differs from Clone:\n%s\nwant\n%s", name, seed, g, w)
			}
		}
	}
}
