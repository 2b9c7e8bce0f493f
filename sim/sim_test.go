package sim

import (
	"context"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"

	"repro/history"
	"repro/model"
)

func TestSCMemoryBasics(t *testing.T) {
	m := NewSC(2)
	if m.Name() != "SC" || m.NumProcs() != 2 {
		t.Fatal("identity wrong")
	}
	if v := m.Read(0, "x", false); v != 0 {
		t.Errorf("initial read = %d", v)
	}
	m.Write(0, "x", 7, false)
	if v := m.Read(1, "x", false); v != 7 {
		t.Errorf("read after write = %d, want 7 (SC is immediate)", v)
	}
	if len(m.Internal()) != 0 {
		t.Error("SC memory has internal actions")
	}
	s := m.Recorder().System()
	if s.NumOps() != 3 {
		t.Errorf("recorded %d ops, want 3", s.NumOps())
	}
}

func TestTSOBufferingProducesSB(t *testing.T) {
	// The Figure 1 execution: writes buffered, reads fetch 0 from memory.
	m := NewTSO(2)
	m.Write(0, "x", 1, false)
	m.Write(1, "y", 1, false)
	if v := m.Read(0, "y", false); v != 0 {
		t.Errorf("p0 read y = %d, want buffered-invisible 0", v)
	}
	if v := m.Read(1, "x", false); v != 0 {
		t.Errorf("p1 read x = %d, want 0", v)
	}
	s := m.Recorder().System()
	v, err := model.TSO.Allows(context.Background(), s)
	if err != nil || !v.Allowed {
		t.Errorf("recorded SB history rejected by TSO checker: %+v, %v", v, err)
	}
	if sc, _ := (model.SC).Allows(context.Background(), s); sc.Allowed {
		t.Error("SB history accepted by SC checker")
	}
}

func TestTSOForwardingReadsOwnBuffer(t *testing.T) {
	m := NewTSO(2)
	m.Write(0, "x", 5, false)
	if v := m.Read(0, "x", false); v != 5 {
		t.Errorf("forwarding read = %d, want 5", v)
	}
	// Memory still holds the initial value until drained.
	if v := m.Read(1, "x", false); v != 0 {
		t.Errorf("other processor read = %d, want 0", v)
	}
	if acts := m.Internal(); len(acts) != 1 {
		t.Fatalf("internal actions = %v, want 1 drain", acts)
	}
	m.Step(0)
	if v := m.Read(1, "x", false); v != 5 {
		t.Errorf("read after drain = %d, want 5", v)
	}
}

func TestTSONoForwardDrainsOnRead(t *testing.T) {
	m := NewTSONoForward(2)
	m.Write(0, "x", 5, false)
	m.Write(0, "y", 6, false)
	// Reading x must drain the buffer through the x entry (just x here,
	// it is first), and the read comes from memory.
	if v := m.Read(0, "x", false); v != 5 {
		t.Errorf("read = %d, want 5", v)
	}
	// y is still buffered (x was first in FIFO).
	if v := m.Read(1, "y", false); v != 0 {
		t.Errorf("p1 read y = %d, want 0 (still buffered)", v)
	}
	// Reading y from p0 drains the rest.
	if v := m.Read(0, "y", false); v != 6 {
		t.Errorf("read y = %d, want 6", v)
	}
	if v := m.Read(1, "y", false); v != 6 {
		t.Errorf("p1 read y after drain = %d, want 6", v)
	}
}

func TestTSONoForwardCannotProduceSBrfi(t *testing.T) {
	// With forwarding, SB+rfi succeeds (reads of own writes return the
	// new value while remote reads see 0). Without forwarding the drain
	// makes the writes globally visible, so the final reads cannot both
	// be 0.
	run := func(m Memory) (history.Value, history.Value) {
		m.Write(0, "x", 1, false)
		m.Read(0, "x", false)
		r0 := m.Read(0, "y", false)
		m.Write(1, "y", 1, false)
		m.Read(1, "y", false)
		r1 := m.Read(1, "x", false)
		return r0, r1
	}
	r0, r1 := run(NewTSO(2))
	if r0 != 0 || r1 != 0 {
		t.Errorf("forwarding TSO: got %d,%d want 0,0", r0, r1)
	}
	r0, r1 = run(NewTSONoForward(2))
	if r0 == 0 && r1 == 0 {
		t.Error("no-forward TSO produced SB+rfi outcome 0,0")
	}
}

func TestPRAMIndependentChannels(t *testing.T) {
	// Reproduce Figure 3: each processor applies its own write first and
	// receives the other's later.
	m := NewPRAM(2)
	m.Write(0, "x", 1, false)
	m.Write(1, "x", 2, false)
	if v := m.Read(0, "x", false); v != 1 {
		t.Errorf("p0 reads own write: got %d", v)
	}
	if v := m.Read(1, "x", false); v != 2 {
		t.Errorf("p1 reads own write: got %d", v)
	}
	Quiesce(m) // deliver both cross updates (PRAM: last applied wins)
	if v := m.Read(0, "x", false); v != 2 {
		t.Errorf("p0 after delivery: got %d, want 2 (p1's update overwrites)", v)
	}
	if v := m.Read(1, "x", false); v != 1 {
		t.Errorf("p1 after delivery: got %d, want 1 (p0's update overwrites)", v)
	}
	s := m.Recorder().System()
	if v, err := (model.PRAM).Allows(context.Background(), s); err != nil || !v.Allowed {
		t.Errorf("PRAM checker rejected Figure-3 history: %+v, %v", v, err)
	}
	if v, _ := (model.TSO).Allows(context.Background(), s); v.Allowed {
		t.Error("TSO checker accepted Figure-3 history")
	}
}

func TestPCGCoherenceLastWriterWins(t *testing.T) {
	// Same run as Figure 3, but the coherent variant must converge: the
	// globally newer write (p1's, version 2) wins at every replica.
	m := NewPCG(2)
	m.Write(0, "x", 1, false)
	m.Write(1, "x", 2, false)
	Quiesce(m)
	if v := m.Read(0, "x", false); v != 2 {
		t.Errorf("p0 converged to %d, want 2", v)
	}
	if v := m.Read(1, "x", false); v != 2 {
		t.Errorf("p1 converged to %d, want 2", v)
	}
}

func TestPRAMFIFOWithinSender(t *testing.T) {
	m := NewPRAM(2)
	m.Write(0, "x", 1, false)
	m.Write(0, "x", 2, false)
	// Deliver only the first update to p1.
	m.Step(0)
	if v := m.Read(1, "x", false); v != 1 {
		t.Errorf("p1 sees %d, want 1 (FIFO)", v)
	}
	m.Step(0)
	if v := m.Read(1, "x", false); v != 2 {
		t.Errorf("p1 sees %d, want 2", v)
	}
}

func TestCausalDeliveryCondition(t *testing.T) {
	// p0 writes x; p1 reads it after delivery and writes y; p2 must not
	// be able to apply p1's y-update before p0's x-update.
	m := NewCausal(3)
	m.Write(0, "x", 1, false)
	// Deliver p0→p1 (and not p0→p2).
	acts := m.Internal()
	if len(acts) != 2 {
		t.Fatalf("internal = %v", acts)
	}
	idx := -1
	for i, a := range acts {
		if a == "deliver p0→p1 x" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("no p0→p1 delivery in %v", acts)
	}
	m.Step(idx)
	if v := m.Read(1, "x", false); v != 1 {
		t.Fatalf("p1 read x = %d", v)
	}
	m.Write(1, "y", 2, false)
	// p2 now has two pending updates, but only p0's x is deliverable.
	for _, a := range m.Internal() {
		if a == "deliver p1→p2 y" {
			t.Errorf("y-update deliverable at p2 before its causal predecessor: %v", m.Internal())
		}
	}
	Quiesce(m)
	if v := m.Read(2, "y", false); v != 2 {
		t.Errorf("p2 y = %d after quiesce", v)
	}
	if v := m.Read(2, "x", false); v != 1 {
		t.Errorf("p2 x = %d after quiesce", v)
	}
}

func TestRCscLabeledOpsAreImmediatelyVisible(t *testing.T) {
	m := NewRCsc(2)
	m.Write(0, "s", 3, true)
	if v := m.Read(1, "s", true); v != 3 {
		t.Errorf("labeled read = %d, want 3 (single sync store)", v)
	}
}

func TestRCpcLabeledOpsPropagateAsynchronously(t *testing.T) {
	m := NewRCpc(2)
	m.Write(0, "s", 3, true)
	if v := m.Read(1, "s", true); v != 0 {
		t.Errorf("labeled read = %d, want 0 before delivery", v)
	}
	Quiesce(m)
	if v := m.Read(1, "s", true); v != 3 {
		t.Errorf("labeled read after delivery = %d, want 3", v)
	}
}

func TestRCReleaseFlushesData(t *testing.T) {
	for _, mk := range []func(int) *RCMemory{NewRCsc, NewRCpc} {
		m := mk(2)
		m.Write(0, "d", 9, false)
		if v := m.Read(1, "d", false); v != 0 {
			t.Errorf("%s: data visible before release", m.Name())
		}
		m.Write(0, "s", 1, true) // release: flushes d
		if v := m.Read(1, "d", false); v != 9 {
			t.Errorf("%s: data = %d after release, want 9", m.Name(), v)
		}
	}
}

func TestTaggedRecordingDistinctWrites(t *testing.T) {
	// Even when the program writes identical (or zero) semantic values,
	// the recorded history satisfies the distinct-write discipline.
	m := NewSC(2)
	m.Write(0, "x", 0, false)
	m.Write(1, "x", 0, false)
	m.Read(0, "x", false)
	s := m.Recorder().System()
	if err := s.ValidateDistinctWrites(); err != nil {
		t.Errorf("tagged history not distinct: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, m := range Memories(2) {
		m.Write(0, "x", 1, false)
		c := m.Clone()
		c.Write(1, "y", 2, false)
		if m.Recorder().Len() == c.Recorder().Len() {
			t.Errorf("%s: clone shares recorder", m.Name())
		}
		if string(m.AppendFingerprint(nil)) == string(c.AppendFingerprint(nil)) {
			t.Errorf("%s: clone shares state (fingerprints equal after divergence)", m.Name())
		}
		// The clone copies the recorded prefix w(x); operations recorded
		// after the clone appear only in their own recorder.
		m.Write(0, "z", 3, false)
		for _, r := range []struct {
			name      string
			rec       *Recorder
			own, peer history.Loc
		}{{"original", m.Recorder(), "z", "y"}, {"clone", c.Recorder(), "y", "z"}} {
			s := r.rec.System()
			if r.rec.Len() != 2 || s.NumOps() != 2 {
				t.Errorf("%s %s: Len=%d NumOps=%d, want 2 (w(x) plus its own write)",
					m.Name(), r.name, r.rec.Len(), s.NumOps())
			}
			locs := map[history.Loc]bool{}
			for _, id := range s.Ops() {
				locs[s.Op(id).Loc] = true
			}
			if !locs["x"] || !locs[r.own] || locs[r.peer] {
				t.Errorf("%s %s: recorded locations %v, want x and %s but not %s",
					m.Name(), r.name, locs, r.own, r.peer)
			}
		}
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	for _, mk := range []func() Memory{
		func() Memory { return NewPRAM(3) },
		func() Memory { return NewCausal(3) },
		func() Memory { return NewRCpc(3) },
	} {
		a, b := mk(), mk()
		script := func(m Memory) {
			m.Write(0, "x", 1, false)
			m.Write(1, "y", 2, false)
			m.Read(2, "x", false)
		}
		script(a)
		script(b)
		if string(a.AppendFingerprint(nil)) != string(b.AppendFingerprint(nil)) {
			t.Errorf("%s: identical runs fingerprint differently", a.Name())
		}
	}
	// The same state reached by touching locations in opposite orders
	// fingerprints identically: the encoding follows location names, not
	// the order in which a memory first saw them.
	for i := range Memories(3) {
		a, b := Memories(3)[i], Memories(3)[i]
		a.Write(0, "x", 1, false)
		a.Write(1, "y", 2, true)
		a.Read(2, "a[1]", false)
		b.Read(2, "a[1]", false)
		b.Write(1, "y", 2, true)
		b.Write(0, "x", 1, false)
		if string(a.AppendFingerprint(nil)) != string(b.AppendFingerprint(nil)) {
			t.Errorf("%s: location touch order changes the fingerprint", a.Name())
		}
	}
}

// simChecker pairs each simulator constructor with the strongest checker
// its histories must satisfy.
var simChecker = []struct {
	mk    func(int) Memory
	check model.Model
}{
	{func(n int) Memory { return NewSC(n) }, model.SC},
	{func(n int) Memory { return NewTSONoForward(n) }, model.TSO},
	// Forwarding escapes the paper's TSO — and its PC too (see litmus
	// test TSOax-not-PC) — so the forwarding machine validates against
	// the axiomatic TSO it implements.
	{func(n int) Memory { return NewTSO(n) }, model.TSOAxiomatic},
	{func(n int) Memory { return NewPRAM(n) }, model.PRAM},
	{func(n int) Memory { return NewPCG(n) }, model.PCG},
	{func(n int) Memory { return NewCausal(n) }, model.Causal},
	{func(n int) Memory { return NewRCsc(n) }, model.RCsc},
	{func(n int) Memory { return NewRCpc(n) }, model.RCpc},
	{func(n int) Memory { return NewSlow(n) }, model.Slow},
}

// TestCrossValidation is the repository's strongest evidence that the
// operational simulators and the non-operational checkers implement the
// same models: every history any simulator can produce must be accepted by
// the corresponding checker, across many random runs.
func TestCrossValidation(t *testing.T) {
	runs := envRuns(60)
	if testing.Short() {
		runs = 10
	}
	for _, sc := range simChecker {
		name := sc.mk(2).Name() + "→" + sc.check.Name()
		t.Run(name, func(t *testing.T) {
			for seed := 0; seed < runs; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)))
				nprocs := 2 + rng.Intn(2)
				mem := sc.mk(nprocs)
				cfg := RandomRunConfig{
					Ops:       8 + rng.Intn(5),
					MaxWrites: 5,
					DataLocs:  []history.Loc{"x", "y"},
					PInternal: 0.4,
				}
				if mem.Name() == "RCsc" || mem.Name() == "RCpc" {
					cfg.DataLocs = []history.Loc{"x"}
					cfg.SyncLocs = []history.Loc{"s", "u"}
				}
				s := RandomRun(mem, rng, cfg)
				v, err := sc.check.Allows(context.Background(), s)
				if err != nil {
					t.Fatalf("seed %d: checker error: %v\nhistory:\n%s", seed, err, s)
				}
				if !v.Allowed {
					t.Fatalf("seed %d: %s produced a history rejected by %s:\n%s",
						seed, mem.Name(), sc.check.Name(), s)
				}
			}
		})
	}
}

// TestCrossValidationWeaker checks histories also pass weaker models
// (containment at the simulator level): SC runs pass everything, TSO runs
// pass PC and PRAM.
func TestCrossValidationWeaker(t *testing.T) {
	weaker := []model.Model{model.PC, model.Causal, model.PRAM, model.PCG}
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		mem := NewSC(2)
		s := RandomRun(mem, rng, RandomRunConfig{Ops: 8, MaxWrites: 4})
		for _, m := range weaker {
			v, err := m.Allows(context.Background(), s)
			if err != nil || !v.Allowed {
				t.Fatalf("seed %d: SC history rejected by %s: %v", seed, m.Name(), err)
			}
		}
	}
}

func TestQuiesceTerminates(t *testing.T) {
	for _, m := range Memories(3) {
		for i := 0; i < 6; i++ {
			m.Write(history.Proc(i%3), "x", history.Value(i+1), false)
		}
		Quiesce(m)
		if len(m.Internal()) != 0 {
			t.Errorf("%s did not quiesce", m.Name())
		}
	}
}

// envRuns lets stress runs scale the seed count via CROSSVAL_RUNS.
func envRuns(def int) int {
	if s := os.Getenv("CROSSVAL_RUNS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestQuickCloneEquivalence: after any random operation sequence, a clone
// fingerprints identically, and applying the same subsequent operations to
// both keeps them identical.
func TestQuickCloneEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		for _, mem := range Memories(2) {
			script := func(m Memory, r *rand.Rand) {
				for i := 0; i < 6; i++ {
					if acts := m.Internal(); len(acts) > 0 && r.Intn(3) == 0 {
						m.Step(r.Intn(len(acts)))
						continue
					}
					p := history.Proc(r.Intn(2))
					loc := history.Loc([]string{"x", "y"}[r.Intn(2)])
					if r.Intn(2) == 0 {
						m.Write(p, loc, history.Value(r.Intn(3)+1), false)
					} else {
						m.Read(p, loc, false)
					}
				}
			}
			script(mem, rand.New(rand.NewSource(seed)))
			clone := mem.Clone()
			if string(clone.AppendFingerprint(nil)) != string(mem.AppendFingerprint(nil)) {
				t.Logf("%s: clone fingerprint differs", mem.Name())
				return false
			}
			// Same continuation on both must stay in lockstep.
			script(mem, rand.New(rand.NewSource(seed+1)))
			script(clone, rand.New(rand.NewSource(seed+1)))
			if string(clone.AppendFingerprint(nil)) != string(mem.AppendFingerprint(nil)) {
				t.Logf("%s: divergence after identical continuations", mem.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickRecordedHistoriesWellFormed: every recorded history satisfies
// the distinct-writes discipline and parses back from its rendering.
func TestQuickRecordedHistoriesWellFormed(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, mem := range Memories(2) {
			h := RandomRun(mem, rng, RandomRunConfig{Ops: 8, MaxWrites: 5, PInternal: 0.3})
			if err := h.ValidateDistinctWrites(); err != nil {
				t.Logf("%s: %v", mem.Name(), err)
				return false
			}
			back, err := history.Parse(h.String())
			if err != nil || back.NumOps() != h.NumOps() {
				t.Logf("%s: reparse failed: %v", mem.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFingerprintCanonicalization: states that differ only in how many
// writes produced them (tags, versions) fingerprint identically — the
// property that keeps write-looping programs finite under exhaustive
// exploration.
func TestFingerprintCanonicalization(t *testing.T) {
	// SC: overwrite the same location different numbers of times with
	// the same final value.
	a, b := NewSC(1), NewSC(1)
	a.Write(0, "x", 7, false)
	for i := 0; i < 5; i++ {
		b.Write(0, "x", 3, false)
	}
	b.Write(0, "x", 7, false)
	if string(a.AppendFingerprint(nil)) != string(b.AppendFingerprint(nil)) {
		t.Errorf("SC fingerprints differ after equivalent overwrites:\n%q\n%q",
			string(a.AppendFingerprint(nil)), string(b.AppendFingerprint(nil)))
	}

	// PCG: version ranks, not raw versions, must appear.
	pa, pb := NewPCG(2), NewPCG(2)
	pa.Write(0, "x", 1, false)
	Quiesce(pa)
	for i := 0; i < 4; i++ {
		pb.Write(0, "x", 9, false)
		Quiesce(pb)
	}
	pb.Write(0, "x", 1, false)
	Quiesce(pb)
	if string(pa.AppendFingerprint(nil)) != string(pb.AppendFingerprint(nil)) {
		t.Errorf("PCG fingerprints differ after equivalent quiesced overwrites:\n%q\n%q",
			string(pa.AppendFingerprint(nil)), string(pb.AppendFingerprint(nil)))
	}

	// Distinct semantic values must still be distinguished.
	c := NewSC(1)
	c.Write(0, "x", 8, false)
	if string(a.AppendFingerprint(nil)) == string(c.AppendFingerprint(nil)) {
		t.Error("different semantic values fingerprint identically")
	}

	// Two cells holding the SAME write's value must differ from two
	// cells holding DIFFERENT writes' (equal) values: tag equality is
	// preserved by canonicalization.
	d1 := NewPRAM(2)
	d1.Write(0, "x", 5, false)
	Quiesce(d1) // both replicas hold the same write
	d2 := NewPRAM(2)
	d2.Write(0, "x", 5, false)
	d2.Write(1, "x", 5, false) // each replica holds its own write
	if string(d1.AppendFingerprint(nil)) == string(d2.AppendFingerprint(nil)) {
		t.Error("same-write and different-write replica states fingerprint identically")
	}
}

// TestSlowMemoryFlagOvertakesData: slow memory's per-(sender,location)
// lanes let the flag update arrive before the data update — the message-
// passing failure PRAM's single per-sender pipe prevents.
func TestSlowMemoryFlagOvertakesData(t *testing.T) {
	m := NewSlow(2)
	m.Write(0, "d", 5, false)
	m.Write(0, "f", 1, false)
	// Deliver the flag lane only (lanes are sorted by location: d, f).
	acts := m.Internal()
	if len(acts) != 2 {
		t.Fatalf("internal = %v", acts)
	}
	fIdx := -1
	for i, a := range acts {
		if a == "deliver p0→p1 f" {
			fIdx = i
		}
	}
	if fIdx < 0 {
		t.Fatalf("no flag lane in %v", acts)
	}
	m.Step(fIdx)
	if v := m.Read(1, "f", false); v != 1 {
		t.Fatalf("flag = %d", v)
	}
	if v := m.Read(1, "d", false); v != 0 {
		t.Fatalf("data = %d, want stale 0", v)
	}
	// The recorded history is exactly MP — rejected by PRAM, allowed by
	// slow memory.
	h := m.Recorder().System()
	if v, err := (model.PRAM).Allows(context.Background(), h); err != nil || v.Allowed {
		t.Errorf("PRAM accepted the slow-memory MP run (err=%v)", err)
	}
	if v, err := (model.Slow).Allows(context.Background(), h); err != nil || !v.Allowed {
		t.Errorf("Slow checker rejected its own machine's run (err=%v)", err)
	}
}

// TestSlowMemorySameLocationFIFO: within one (sender, location) lane,
// order is preserved.
func TestSlowMemorySameLocationFIFO(t *testing.T) {
	m := NewSlow(2)
	m.Write(0, "x", 1, false)
	m.Write(0, "x", 2, false)
	m.Step(0)
	if v := m.Read(1, "x", false); v != 1 {
		t.Errorf("x = %d, want 1 (lane FIFO)", v)
	}
	m.Step(0)
	if v := m.Read(1, "x", false); v != 2 {
		t.Errorf("x = %d, want 2", v)
	}
}
