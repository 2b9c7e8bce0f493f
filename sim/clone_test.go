package sim

import (
	"math/rand"
	"slices"
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

// writes drives m through n writes by random processors over locs and no
// internal actions, so its queues only grow and its recorder holds n more
// writes.
func writes(m Memory, rng *rand.Rand, n int, locs []history.Loc) {
	for i := 0; i < n; i++ {
		p := history.Proc(rng.Intn(m.NumProcs()))
		m.Write(p, locs[rng.Intn(len(locs))], history.Value(rng.Intn(3)), rng.Intn(3) == 0)
	}
}

// TestCloneIntoMatchesClone checks the storage-reusing copy against the
// allocating one on every simulator. The scratch a memory is copied into
// is dirty. In the first case a different walk dirtied it, over other
// locations and, for odd seeds, with another processor count, so its
// slices hold stale cells and queues of other lengths. In the second a
// run of writes and no deliveries did, so its queues are longer and its
// recorder holds more writes than the original's. The copy must be
// indistinguishable from Clone's before and after the same continuation,
// copying into a used copy again must still match, and later steps on
// either the original or the copy must never show in the other.
func TestCloneIntoMatchesClone(t *testing.T) {
	srcLocs := []history.Loc{"x", "y", "flag[0]"}
	dirtyLocs := []history.Loc{"b", "a[1]", "x", "z", "w"}
	dirty := []struct {
		name  string
		procs func(seed int64) int
		walk  func(m Memory, seed int64)
	}{
		{"walked", func(seed int64) int { return 2 + int(seed%2) }, func(m Memory, seed int64) {
			walk(m, rand.New(rand.NewSource(seed+1000)), 30, dirtyLocs)
		}},
		{"written", func(int64) int { return 2 }, func(m Memory, seed int64) {
			writes(m, rand.New(rand.NewSource(seed+1000)), 40, srcLocs)
		}},
	}
	for _, d := range dirty {
		for seed := int64(0); seed < 40; seed++ {
			scratches := Memories(d.procs(seed))
			for i, src := range Memories(2) {
				name := d.name + "/" + src.Name()
				walk(src, rand.New(rand.NewSource(seed)), 20, srcLocs)
				scratch := scratches[i]
				d.walk(scratch, seed)
				if d.name == "written" && scratch.Recorder().Len() <= src.Recorder().Len() {
					t.Fatalf("%s seed %d: the scratch records %d operations, the original %d; want more",
						name, seed, scratch.Recorder().Len(), src.Recorder().Len())
				}
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

				// Steps on the original after the copy was taken must not
				// show in the copy, not even in the tags its next writes
				// get.
				got = src.CloneInto(got)
				want = src.Clone()
				walk(src, rand.New(rand.NewSource(seed+3000)), 50, srcLocs)
				walk(got, rand.New(rand.NewSource(seed+4000)), 50, srcLocs)
				walk(want, rand.New(rand.NewSource(seed+4000)), 50, srcLocs)
				if g, w := observe(got), observe(want); g != w {
					t.Fatalf("%s seed %d: stepping the original showed in the copy:\n%s\nwant\n%s", name, seed, g, w)
				}
				if g, w := observe(src.CloneInto(got)), observe(src.Clone()); g != w {
					t.Fatalf("%s seed %d: copying into a used copy differs from Clone:\n%s\nwant\n%s", name, seed, g, w)
				}
			}
		}
	}
}

// TestRecorderDiscard checks that a memory whose recorder discards its
// history evolves exactly as one that keeps it: after the same walk the two
// have the same fingerprint and the same write counters, so their next
// writes get the same tags. It records nothing, and neither do its copies,
// taken by Clone or into the storage of a memory that records.
func TestRecorderDiscard(t *testing.T) {
	locs := []history.Loc{"x", "y", "flag[0]"}
	for seed := int64(0); seed < 20; seed++ {
		dropped := Memories(2)
		for i, kept := range Memories(2) {
			d := dropped[i]
			walk(kept, rand.New(rand.NewSource(seed)), 10, locs)
			walk(d, rand.New(rand.NewSource(seed)), 10, locs)
			d.Recorder().Discard()
			ms := []Memory{d, d.Clone(), d.CloneInto(kept.Clone())}
			walk(kept, rand.New(rand.NewSource(seed+1000)), 30, locs)
			for j, m := range ms {
				walk(m, rand.New(rand.NewSource(seed+1000)), 30, locs)
				if fingerprint(m) != fingerprint(kept) || !slices.Equal(m.Recorder().nextSeq, kept.Recorder().nextSeq) {
					t.Errorf("%s seed %d copy %d: state or write counters differ from the recording memory's", kept.Name(), seed, j)
				}
				if n, ops := m.Recorder().Len(), m.Recorder().System().NumOps(); n != 0 || ops != 0 {
					t.Errorf("%s seed %d copy %d: recorded %d operations (%d in System), want none", kept.Name(), seed, j, n, ops)
				}
			}
		}
	}
}
