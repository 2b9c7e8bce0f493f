package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/sim"
)

// hashString writes a length-prefixed string into h.
func hashString(h hash.Hash, s string) {
	h.Write(binary.AppendUvarint(nil, uint64(len(s))))
	h.Write([]byte(s))
}

// TestViolationDigestGolden pins what the explorer reports, not only how
// much it explores: for Bakery(2,1) on every simulator, at the sequential
// and the parallel search, a SHA-256 over the counts and over every
// violation's trace, recorded history and state fingerprint, in reporting
// order. A change to how successors are generated, deduplicated or merged
// must leave every byte of the reported violations unchanged.
func TestViolationDigestGolden(t *testing.T) {
	want := map[string]string{
		"SC/workers=1":      "2931e6093c07cd9a984291cf96e7cbf1a0406027161b90e51c9b4a514274e741",
		"SC/workers=2":      "2931e6093c07cd9a984291cf96e7cbf1a0406027161b90e51c9b4a514274e741",
		"TSO-fwd/workers=1": "dca373e40fae54346e8418c04a54f1fd0da04fe9284e2b2c944a74622e2221f4",
		"TSO-fwd/workers=2": "0515a86f4379847e16df9ff76ee1ff0db2e007be8697051d782f88362cc1964f",
		"TSO/workers=1":     "dca373e40fae54346e8418c04a54f1fd0da04fe9284e2b2c944a74622e2221f4",
		"TSO/workers=2":     "0515a86f4379847e16df9ff76ee1ff0db2e007be8697051d782f88362cc1964f",
		"PRAM/workers=1":    "8e42062c2accb2c7766959c74320bf582a77f6762f343f64323ba03568071942",
		"PRAM/workers=2":    "5d5195a25ae89fd031efbbe3697353d846b6dabb78d5921fbe60b137fcd45dfd",
		"PCG/workers=1":     "8e42062c2accb2c7766959c74320bf582a77f6762f343f64323ba03568071942",
		"PCG/workers=2":     "5d5195a25ae89fd031efbbe3697353d846b6dabb78d5921fbe60b137fcd45dfd",
		"Causal/workers=1":  "f2556520ad5c723832053bfc94279beb35fabad6c72e2bbbb78b0dd5bc27c6eb",
		"Causal/workers=2":  "6ceac8a20b9512aed9e12bb7657f66d818af838a8d56de3c97e98fb30c7d0ee3",
		"RCsc/workers=1":    "2931e6093c07cd9a984291cf96e7cbf1a0406027161b90e51c9b4a514274e741",
		"RCsc/workers=2":    "2931e6093c07cd9a984291cf96e7cbf1a0406027161b90e51c9b4a514274e741",
		"RCpc/workers=1":    "30c62748c9646d19e405320eb1e4f5cd045bbc578b9abf224e38a387c371c1d3",
		"RCpc/workers=2":    "8c41ada88e5e88dd2ffbfef0e90cff93e99f69fdd2dda9419905889d83a804d3",
		"Slow/workers=1":    "f7f2de7d10f0110b060438511b616948e1f0849d24243120649545e1bd88dae8",
		"Slow/workers=2":    "bb03553be1b15b6a7b2610c770e7b3f71fac3557af05a486b2f07badd1dc87b9",
	}
	for _, workers := range []int{1, 2} {
		for _, mem := range sim.Memories(2) {
			name := fmt.Sprintf("%s/workers=%d", mem.Name(), workers)
			res, err := Exhaustive(bakeryMachine(t, mem, 2, true), Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			hashString(h, fmt.Sprintf("complete=%v states=%d transitions=%d terminal=%d violations=%d",
				res.Complete, res.States, res.Transitions, res.TerminalStates, len(res.Violations)))
			for _, v := range res.Violations {
				for _, s := range v.Trace {
					hashString(h, s)
				}
				hashString(h, "")
				hashString(h, v.History.String())
				hashString(h, v.State.Fingerprint())
			}
			got := hex.EncodeToString(h.Sum(nil))
			if w, ok := want[name]; !ok || got != w {
				t.Errorf("%q: %q,", name, got)
			}
		}
	}
}
