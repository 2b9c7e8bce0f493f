package explore

import (
	"math/rand"
	"slices"
	"testing"

	"repro/algorithms"
	"repro/program"
	"repro/sim"
)

// BenchmarkBakeryTransition measures what a successor costs the explorer
// on Bakery(2,2) RCpc. An unknown successor copies a memory
// representative into a scratch machine (CloneInto measures a whole
// machine's copy, on a machine 40 random steps into a run) and keys the
// stepped components (AppendKey: every thread's key and the memory's). A
// known one, the path most transitions take, reads the step from the
// successor tables, builds the successor's tuple and probes the visited
// set (MemoHit, on a state of a complete exploration, whose successors
// are all known). None may allocate.
func BenchmarkBakeryTransition(b *testing.B) {
	newBakery := func() *program.Machine {
		m, err := program.NewMachine(sim.NewRCpc(2), algorithms.Bakery(2, 2, true))
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	m := newBakery()
	rng := rand.New(rand.NewSource(1))
	for range 40 {
		if n := m.Mem().NumInternal(); n > 0 && rng.Intn(2) == 0 {
			m.Mem().Step(rng.Intn(n))
		} else if r := m.Runnable(); len(r) > 0 {
			if err := m.StepThread(r[rng.Intn(len(r))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("CloneInto", func(b *testing.B) {
		b.ReportAllocs()
		dst := m.Clone()
		for b.Loop() {
			dst = m.CloneInto(dst)
		}
	})
	b.Run("AppendKey", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			buf = buf[:0]
			for i := range m.NumThreads() {
				buf = m.AppendThreadKey(buf, i)
			}
			buf = m.Mem().AppendKey(buf)
		}
	})
	b.Run("MemoHit", func(b *testing.B) {
		sr := newSearch(newBakery(), Options{MaxStates: 1 << 20, MaxDepth: 10_000}, MutualExclusion)
		if err := sr.depthFirst(b.Context()); err != nil || !sr.res.Complete {
			b.Fatalf("exploration: complete=%v err=%v", sr.res.Complete, err)
		}
		sp := sr.sp
		var t []uint32
		i := -1
		for id := uint32(sp.seen.len() / 2); i < 0; id++ {
			t = sp.seen.tuple(id)
			for j := range len(t) - 1 {
				if !sp.halted(j, t[j]) {
					i = j
					break
				}
			}
		}
		last := len(t) - 1
		buf := slices.Clone(t)
		hits := sp.hits
		b.ReportAllocs()
		b.ResetTimer()
		for b.Loop() {
			next, mem, err := sp.threadStep(i, t[i], t[last])
			buf[i], buf[last] = next, mem
			if _, seen := sp.seen.find(hashTuple(buf), buf); err != nil || !seen {
				b.Fatal("a successor of a complete exploration is not a visited state")
			}
		}
		if sp.hits-hits != b.N {
			b.Fatal("a successor of a complete exploration is not in the tables")
		}
	})
}
