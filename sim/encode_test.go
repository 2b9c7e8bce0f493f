package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/history"
)

// TestEncoderMatchesOracle holds the direct encoder to the reference one
// kept in oracle_test.go: along seeded random walks on all nine memories,
// every fingerprint and every key must be byte-identical to the
// reference's. Each walk starts with a run of 90 writes to one location,
// one in five labeled, and no deliveries, so the versioned memories (PRAM,
// PCG, RCsc, RCpc) hold versions both below 64 and from 64 up, in
// replicas and in queues, and the encoder's sorted fallback ranks them;
// the walk then
// mixes labeled and ordinary reads and writes to the same locations
// (RCsc keeps the labeled ones in its synchronization store, the ordinary
// ones in its replicas), internal steps and clones.
func TestEncoderMatchesOracle(t *testing.T) {
	check := func(m Memory, seed int64, step int) {
		t.Helper()
		for _, byID := range []bool{false, true} {
			var got []byte
			if byID {
				got = m.AppendKey([]byte("prefix"))
			} else {
				got = m.AppendFingerprint([]byte("prefix"))
			}
			want := append([]byte("prefix"), oracleEncode(m, byID)...)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s seed %d step %d byID=%v: encoding differs from the reference:\n%q\nwant\n%q",
					m.Name(), seed, step, byID, got, want)
			}
		}
	}
	highVersions := map[string]bool{}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, m := range Memories(3) {
			for i := 0; i < 90; i++ {
				m.Write(history.Proc(rng.Intn(3)), "x", history.Value(rng.Intn(3)), i%5 == 0)
				if i%10 == 9 {
					check(m, seed, -1)
				}
			}
			if maxVersion(m) > 64 {
				highVersions[m.Name()] = true
			}
			for i := 0; i < 60; i++ {
				p := history.Proc(rng.Intn(3))
				loc := goldenLocs[rng.Intn(len(goldenLocs))]
				labeled := rng.Intn(2) == 0
				switch k := rng.Intn(10); {
				case k < 4:
					if n := m.NumInternal(); n > 0 {
						m.Step(rng.Intn(n))
					}
				case k < 5:
					m = m.Clone()
				case k < 8:
					m.Write(p, loc, history.Value(rng.Intn(3)), labeled)
				default:
					m.Read(p, loc, labeled)
				}
				check(m, seed, i)
			}
		}
	}
	for _, name := range []string{"PRAM", "PCG", "RCsc", "RCpc"} {
		if !highVersions[name] {
			t.Errorf("%s: no walk reached a version above 64", name)
		}
	}
}

// maxVersion returns the highest version m has handed out, or 0 for a
// memory without versions.
func maxVersion(m Memory) int {
	var vs []int
	switch m := m.(type) {
	case *PRAMMemory:
		vs = m.versions
	case *RCMemory:
		vs = m.versions
	}
	top := 0
	for _, v := range vs {
		top = max(top, v)
	}
	return top
}

// TestAppendKeyAllocs pins the cost of keying a state: AppendKey into a
// buffer with room allocates nothing, on every simulator, in states with
// pending updates in their queues.
func TestAppendKeyAllocs(t *testing.T) {
	for _, m := range Memories(3) {
		walk(m, rand.New(rand.NewSource(1)), 30, goldenLocs)
		for i := range 6 {
			m.Write(history.Proc(i%3), goldenLocs[i%len(goldenLocs)], history.Value(i), i%2 == 0)
		}
		buf := make([]byte, 0, 4096)
		if allocs := testing.AllocsPerRun(100, func() { buf = m.AppendKey(buf[:0]) }); allocs != 0 {
			t.Errorf("%s: %.2f allocations per AppendKey, want 0", m.Name(), allocs)
		}
	}
}
