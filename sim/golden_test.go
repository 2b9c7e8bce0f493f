package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"repro/history"
)

// fingerprint renders a memory's fingerprint as a string.
func fingerprint(m Memory) string { return string(m.AppendFingerprint(nil)) }

// goldenLocs mixes plain and indexed names; a[1] sorts before the others,
// so location ids (first touch) and encoding order (by name) disagree.
var goldenLocs = []history.Loc{"x", "y", "z", "a[1]"}

// hashString writes a length-prefixed string into h.
func hashString(h hash.Hash, s string) {
	h.Write(binary.AppendUvarint(nil, uint64(len(s))))
	h.Write([]byte(s))
}

// TestFingerprintGolden pins the exact fingerprint encoding of every
// simulator. 300 seeded random walks on each of the nine memories interleave
// labeled and unlabeled reads and writes, internal steps and clones; the
// digest of every fingerprint along the walks, and the digest of every
// enabled internal-action list, must not move. A change to the state
// layout must leave both byte-identical. Along the way, NumInternal must
// count exactly the actions Internal lists.
func TestFingerprintGolden(t *testing.T) {
	want := map[string][2]string{
		"SC":      {"a460dc795e1fb4785991f0645f84da2dce7627322a725c8af2ce92dbd5997008", "e4331b4b5dff91084b34db4018c5905a016cdf9c0d74d02c0d5af88dabfc6bc6"},
		"TSO-fwd": {"bd36340122d3bb5160579b93d1aebc2cfafa1a0d500ebb3258e226c503b96e1d", "559ac51f0891d1563b07700fdc13d7f2a2375cd34c0f37a46f3ca6342b910409"},
		"TSO":     {"27705bd723c89a3965ed2dce114ea621d44d41695b705b3f6991a3ce87eb3d4e", "94ef04a5f01d28e3cb4a0d41ef9c9995ec8bf4d7424bfc30ea4d88bc146486b1"},
		"PRAM":    {"c3e3847ae14c687b0a3f7c26f4139124ffd02b21c8557884a9d1700dea8fec4c", "a8903ea95659b668812bc925c6a622c44fcbded3ebc618c444d191b4c223bd7c"},
		"PCG":     {"6c71d04797ce01bb78ef98a8e951e3c2b88bd0b47486a7bb89680ff657978bd1", "84603136847b600b4fac5b8c4aebf90ca300a67fa8827c872810aa1de69e2948"},
		"Causal":  {"cdb2d70f69f8763d09725eaef7da8c354079591c5026a28e389da02ff0f6309c", "d1acfb721f5e2a142b71bb18fa04d8ba2a2659044cd4661d33bbbb42070eb40c"},
		"RCsc":    {"b3639b71736e5d362d78459477ad12032aa8f6fe948a6a0b9e6c161f8fc10956", "106ef822d6333aed4a735e5463ade34022c692ddfe40698f9a2ffd297496800f"},
		"RCpc":    {"d2c035424bc0706400a88ad86ca0402fe24b7691b7dc78914097b23f4cefd0c7", "96dd845fdb0c45468180f436581066fb78b9d6270012384092703b87eda74994"},
		"Slow":    {"a3e6eb57590cfdc2e5847700fe20d261f4602cc294196c34b15f4b92bba2a125", "edc9db971511187e8c205211ac0e177ee5269d141f2fdf9f1f8c4f865fa41837"},
	}
	fps, acts := map[string]hash.Hash{}, map[string]hash.Hash{}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, m := range Memories(3) {
			name := m.Name()
			if fps[name] == nil {
				fps[name], acts[name] = sha256.New(), sha256.New()
			}
			for i := 0; i < 24; i++ {
				p := history.Proc(rng.Intn(3))
				loc := goldenLocs[rng.Intn(len(goldenLocs))]
				labeled := rng.Intn(3) == 0
				switch k := rng.Intn(10); {
				case k < 3:
					if in := m.Internal(); len(in) > 0 {
						m.Step(rng.Intn(len(in)))
					}
				case k < 4:
					// Continue on a clone after mutating the original: the
					// two must evolve independently.
					c := m.Clone()
					m.Write(p, loc, history.Value(rng.Intn(3)), labeled)
					hashString(fps[name], fingerprint(m))
					m = c
				case k < 7:
					m.Write(p, loc, history.Value(rng.Intn(3)), labeled)
				default:
					m.Read(p, loc, labeled)
				}
				hashString(fps[name], fingerprint(m))
				in := m.Internal()
				for _, a := range in {
					hashString(acts[name], a)
				}
				hashString(acts[name], "")
				if n := m.NumInternal(); n != len(in) {
					t.Fatalf("%s: NumInternal %d, Internal lists %d", name, n, len(in))
				}
			}
		}
	}
	for name := range fps {
		got := [2]string{hex.EncodeToString(fps[name].Sum(nil)), hex.EncodeToString(acts[name].Sum(nil))}
		if w, ok := want[name]; !ok || got != w {
			t.Errorf("%s: fingerprint/internal digests %q, want %q", name, got, w)
		}
	}
}

// TestRandomRunGolden pins the histories RandomRun records on every
// simulator over fixed seeds, with data and synchronization locations. It
// pins each simulator's internal-action order too: RandomRun picks actions
// by index, so a reordered Internal list changes the recorded history.
func TestRandomRunGolden(t *testing.T) {
	want := map[string]string{
		"SC":      "ae2123aec566f3be0e21be432be5e06d789b0d8d91d1335e22996d13134aad1d",
		"TSO-fwd": "bc934106216f067d979fcdf3ca3b7329bfee51217a856d1c767081ae5736d3fe",
		"TSO":     "bcb9c7fdf4e322be2add3c1033a95e4915e264e119fbe3533f33ccb29e531957",
		"PRAM":    "dbc61d2b6f594efdb511bf1b6c9adb3c5f42b0442067df87866319aa33e0f5d5",
		"PCG":     "47cb2ed7c84a92841c59f3878043adc185f1fb6352d5e67a9fa3cd1cb4f90a4d",
		"Causal":  "f1fa99255389a18b5b25aa38b1dccf314eccd90f208e28b8ff6eda076ebf2cf2",
		"RCsc":    "3bab1765f5b558b3fc136bf934f170df8733db99660ced98d0fbabc740e93427",
		"RCpc":    "68e714c89f0b5cc5fb0cc2846f9c6a5c1317b991eb1aeafc4d6947f63c6f2fa0",
		"Slow":    "0440984ef956c274c90f7ad4fe6b6b1786e40423c47c7ab26e1987fb2b3e3e5c",
	}
	hs := map[string]hash.Hash{}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, m := range Memories(3) {
			h := RandomRun(m, rng, RandomRunConfig{
				Ops:        16,
				MaxWrites:  8,
				DataLocs:   []history.Loc{"y", "x", "a[1]"},
				SyncLocs:   []history.Loc{"s", "flag[0]"},
				PInternal:  0.4,
				DrainAtEnd: seed%2 == 0,
			})
			if hs[m.Name()] == nil {
				hs[m.Name()] = sha256.New()
			}
			hashString(hs[m.Name()], h.String())
		}
	}
	for name, h := range hs {
		if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
			t.Errorf("%s: RandomRun digest %s, want %s", name, got, want[name])
		}
	}
}

// TestKeyMatchesFingerprint holds AppendKey to AppendFingerprint: over
// seeded random walks from clones of one root on each of the nine
// memories, so that every state shares the root's location table, two
// states must have equal keys exactly when they have equal fingerprints.
// Both directions are checked through maps from each encoding to the
// other, and the walks must revisit states, or the test would compare only
// distinct states. A key is never longer than its fingerprint.
func TestKeyMatchesFingerprint(t *testing.T) {
	for _, root := range Memories(3) {
		name := root.Name()
		fpOf, keyOf := map[string]string{}, map[string]string{}
		samples := 0
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := root.Clone()
			for i := 0; i < 12; i++ {
				p := history.Proc(rng.Intn(3))
				loc := goldenLocs[rng.Intn(len(goldenLocs))]
				labeled := rng.Intn(3) == 0
				switch k := rng.Intn(10); {
				case k < 4:
					if n := m.NumInternal(); n > 0 {
						m.Step(rng.Intn(n))
					}
				case k < 6:
					m.Write(p, loc, history.Value(rng.Intn(2)), labeled)
				default:
					m.Read(p, loc, labeled)
				}
				key, fp := string(m.AppendKey(nil)), fingerprint(m)
				samples++
				if len(key) > len(fp) {
					t.Fatalf("%s: key of %d bytes, fingerprint of %d", name, len(key), len(fp))
				}
				if f, ok := fpOf[key]; ok && f != fp {
					t.Fatalf("%s seed %d: one key for two fingerprints\n%q\n%q", name, seed, f, fp)
				}
				if k, ok := keyOf[fp]; ok && k != key {
					t.Fatalf("%s seed %d: one fingerprint for two keys\n%q\n%q", name, seed, k, key)
				}
				fpOf[key], keyOf[fp] = fp, key
				m = m.Clone()
			}
		}
		if len(keyOf) == samples || len(keyOf) < 20 {
			t.Errorf("%s: %d distinct states in %d samples; the walks must revisit states and vary", name, len(keyOf), samples)
		}
		t.Logf("%s: %d distinct states in %d samples", name, len(keyOf), samples)
	}
}
