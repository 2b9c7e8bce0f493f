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
// much it explores: for Bakery(2,1) on every simulator, a SHA-256 over the
// counts and over every violation's trace, recorded history and state
// fingerprint, in reporting order. A change to how successors are
// generated or deduplicated must leave every byte of the reported
// violations unchanged.
func TestViolationDigestGolden(t *testing.T) {
	want := map[string]string{
		"SC":      "2931e6093c07cd9a984291cf96e7cbf1a0406027161b90e51c9b4a514274e741",
		"TSO-fwd": "dca373e40fae54346e8418c04a54f1fd0da04fe9284e2b2c944a74622e2221f4",
		"TSO":     "dca373e40fae54346e8418c04a54f1fd0da04fe9284e2b2c944a74622e2221f4",
		"PRAM":    "8e42062c2accb2c7766959c74320bf582a77f6762f343f64323ba03568071942",
		"PCG":     "8e42062c2accb2c7766959c74320bf582a77f6762f343f64323ba03568071942",
		"Causal":  "f2556520ad5c723832053bfc94279beb35fabad6c72e2bbbb78b0dd5bc27c6eb",
		"RCsc":    "2931e6093c07cd9a984291cf96e7cbf1a0406027161b90e51c9b4a514274e741",
		"RCpc":    "30c62748c9646d19e405320eb1e4f5cd045bbc578b9abf224e38a387c371c1d3",
		"Slow":    "f7f2de7d10f0110b060438511b616948e1f0849d24243120649545e1bd88dae8",
	}
	for _, mem := range sim.Memories(2) {
		name := mem.Name()
		res, err := Exhaustive(bakeryMachine(t, mem, 2, true), Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		hashString(h, fmt.Sprintf("complete=%v states=%d transitions=%d terminal=%d violations=%d",
			res.Complete, res.States, res.Transitions, res.TerminalStates, len(res.Violations)))
		for _, v := range res.Violations {
			trace, hist, state := replayViolation(t, v)
			for _, s := range trace {
				hashString(h, s)
			}
			hashString(h, "")
			hashString(h, hist.String())
			hashString(h, state.Fingerprint())
		}
		got := hex.EncodeToString(h.Sum(nil))
		if w, ok := want[name]; !ok || got != w {
			t.Errorf("%q: %q,", name, got)
		}
	}
}
