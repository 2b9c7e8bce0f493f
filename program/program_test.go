package program

import (
	"reflect"
	"testing"

	"repro/sim"
)

// seqSched runs thread 0 to completion, then thread 1, etc., performing
// internal actions only when no thread can run.
func seqSched(runnable []int, internal []string) (int, int) {
	if len(runnable) > 0 {
		return runnable[0], -1
	}
	if len(internal) > 0 {
		return -1, 0
	}
	return -1, -1
}

func TestExprEvaluation(t *testing.T) {
	cases := []struct {
		e    Expr
		want int
	}{
		{Const(7), 7},
		{Bin{Op: Add, L: Const(2), R: Const(3)}, 5},
		{Bin{Op: Sub, L: Const(2), R: Const(3)}, -1},
		{Bin{Op: Mul, L: Const(4), R: Const(3)}, 12},
		{Bin{Op: Lt, L: Const(1), R: Const(2)}, 1},
		{Bin{Op: Lt, L: Const(2), R: Const(2)}, 0},
		{Bin{Op: Le, L: Const(2), R: Const(2)}, 1},
		{Bin{Op: Eq, L: Const(2), R: Const(2)}, 1},
		{Bin{Op: Ne, L: Const(2), R: Const(2)}, 0},
		{Bin{Op: And, L: Const(1), R: Const(0)}, 0},
		{Bin{Op: And, L: Const(1), R: Const(5)}, 1},
		{Bin{Op: Or, L: Const(0), R: Const(5)}, 1},
		{Bin{Op: Or, L: Const(0), R: Const(0)}, 0},
		{Not{Const(0)}, 1},
		{Not{Const(3)}, 0},
	}
	for _, c := range cases {
		prog := []Stmt{
			Assign{Dst: "out", E: c.e},
			Store{Loc: "result", E: Local("out")},
		}
		mem := sim.NewSC(1)
		m, err := NewMachine(mem, [][]Stmt{prog})
		if err != nil {
			t.Fatalf("%v: %v", c.e, err)
		}
		if err := m.Run(seqSched); err != nil {
			t.Fatalf("%v: %v", c.e, err)
		}
		if got := mem.Read(0, "result", false); int(got) != c.want {
			t.Errorf("%v = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestExprStrings(t *testing.T) {
	e := Bin{Op: Add, L: Local("a"), R: Not{Const(3)}}
	if got := e.String(); got != "(a + !3)" {
		t.Errorf("String = %q", got)
	}
}

func TestIfElse(t *testing.T) {
	prog := []Stmt{
		Assign{Dst: "x", E: Const(10)},
		If{
			Cond: Bin{Op: Lt, L: Local("x"), R: Const(5)},
			Then: []Stmt{Store{Loc: "out", E: Const(1)}},
			Else: []Stmt{Store{Loc: "out", E: Const(2)}},
		},
	}
	mem := sim.NewSC(1)
	m, _ := NewMachine(mem, [][]Stmt{prog})
	if err := m.Run(seqSched); err != nil {
		t.Fatal(err)
	}
	if got := mem.Read(0, "out", false); got != 2 {
		t.Errorf("out = %d, want 2 (else branch)", got)
	}
}

func TestWhileLoop(t *testing.T) {
	// Sum 1..5 locally, store the result.
	prog := []Stmt{
		Assign{Dst: "i", E: Const(1)},
		Assign{Dst: "sum", E: Const(0)},
		While{
			Cond: Bin{Op: Le, L: Local("i"), R: Const(5)},
			Body: []Stmt{
				Assign{Dst: "sum", E: Bin{Op: Add, L: Local("sum"), R: Local("i")}},
				Assign{Dst: "i", E: Bin{Op: Add, L: Local("i"), R: Const(1)}},
			},
		},
		Store{Loc: "out", E: Local("sum")},
	}
	mem := sim.NewSC(1)
	m, _ := NewMachine(mem, [][]Stmt{prog})
	if err := m.Run(seqSched); err != nil {
		t.Fatal(err)
	}
	if got := mem.Read(0, "out", false); got != 15 {
		t.Errorf("sum = %d, want 15", got)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	progs := [][]Stmt{
		{Store{Loc: "x", E: Const(42)}},
		{
			Load{Dst: "v", Loc: "x"},
			Store{Loc: "y", E: Bin{Op: Add, L: Local("v"), R: Const(1)}},
		},
	}
	mem := sim.NewSC(2)
	m, _ := NewMachine(mem, progs)
	if err := m.Run(seqSched); err != nil {
		t.Fatal(err)
	}
	if got := mem.Read(0, "y", false); got != 43 {
		t.Errorf("y = %d, want 43", got)
	}
}

func TestStepGranularityOneSharedOpPerStep(t *testing.T) {
	prog := []Stmt{
		Assign{Dst: "a", E: Const(1)}, // local
		Store{Loc: "x", E: Const(1)},  // shared #1
		Assign{Dst: "a", E: Const(2)}, // local
		Store{Loc: "y", E: Const(2)},  // shared #2
	}
	mem := sim.NewSC(1)
	m, _ := NewMachine(mem, [][]Stmt{prog})
	if err := m.StepThread(0); err != nil {
		t.Fatal(err)
	}
	if n := mem.Recorder().Len(); n != 1 {
		t.Errorf("after one step: %d shared ops recorded, want 1", n)
	}
	if err := m.StepThread(0); err != nil {
		t.Fatal(err)
	}
	if n := mem.Recorder().Len(); n != 2 {
		t.Errorf("after two steps: %d shared ops recorded, want 2", n)
	}
	if !m.Halted() {
		// The second step should have run through the trailing halt.
		if err := m.StepThread(0); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Halted() {
		t.Error("machine not halted after program end")
	}
}

func TestCSMarkers(t *testing.T) {
	prog := []Stmt{
		Store{Loc: "x", E: Const(1)},
		CSEnter{},
		Store{Loc: "x", E: Const(2)},
		CSExit{},
		Store{Loc: "x", E: Const(3)},
	}
	mem := sim.NewSC(1)
	m, _ := NewMachine(mem, [][]Stmt{prog})
	if err := m.StepThread(0); err != nil { // store 1; stops before CSEnter
		t.Fatal(err)
	}
	if m.ThreadInCS(0) {
		t.Error("thread entered CS too early")
	}
	if err := m.StepThread(0); err != nil { // CSEnter (a visible step)
		t.Fatal(err)
	}
	if !m.ThreadInCS(0) || m.InCS() != 1 {
		t.Error("thread should be in CS after the CSEnter step")
	}
	if err := m.StepThread(0); err != nil { // store 2
		t.Fatal(err)
	}
	if !m.ThreadInCS(0) {
		t.Error("thread should still be in CS")
	}
	if err := m.StepThread(0); err != nil { // CSExit
		t.Fatal(err)
	}
	if m.ThreadInCS(0) {
		t.Error("thread should have left CS")
	}
}

func TestLocalLivelockDetected(t *testing.T) {
	prog := []Stmt{
		While{Cond: Const(1), Body: []Stmt{Assign{Dst: "x", E: Const(1)}}},
	}
	mem := sim.NewSC(1)
	m, _ := NewMachine(mem, [][]Stmt{prog})
	if err := m.StepThread(0); err == nil {
		t.Error("local infinite loop not detected")
	}
}

func TestStepHaltedThreadErrors(t *testing.T) {
	mem := sim.NewSC(1)
	m, _ := NewMachine(mem, [][]Stmt{{Store{Loc: "x", E: Const(1)}}})
	if err := m.StepThread(0); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		if err := m.StepThread(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.StepThread(0); err == nil {
		t.Error("stepping a halted thread should error")
	}
}

func TestMachineProcCountMismatch(t *testing.T) {
	mem := sim.NewSC(2)
	if _, err := NewMachine(mem, [][]Stmt{{}}); err == nil {
		t.Error("processor/program count mismatch accepted")
	}
}

func TestCloneAndFingerprint(t *testing.T) {
	progs := [][]Stmt{
		{Store{Loc: "x", E: Const(1)}, Store{Loc: "x", E: Const(2)}},
		{Load{Dst: "v", Loc: "x"}},
	}
	mem := sim.NewPRAM(2)
	m, _ := NewMachine(mem, progs)
	if err := m.StepThread(0); err != nil {
		t.Fatal(err)
	}
	fp := m.Fingerprint()
	c := m.Clone()
	if c.Fingerprint() != fp {
		t.Error("clone fingerprints differently")
	}
	if err := c.StepThread(1); err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == fp {
		t.Error("fingerprint unchanged after a step")
	}
	if m.Fingerprint() != fp {
		t.Error("stepping the clone mutated the original")
	}
}

// TestCloneIntoReusesScratch: copying into a machine that ran another
// schedule reuses it and matches Clone, copying into a machine of another
// shape still copies, and neither copy aliases the original.
func TestCloneIntoReusesScratch(t *testing.T) {
	progs := [][]Stmt{
		{Store{Loc: "x", E: Const(1)}, Load{Dst: "a", Loc: "y"}, Store{Loc: "x", E: Const(2)}},
		{Store{Loc: "y", E: Const(1)}, Load{Dst: "b", Loc: "x"}},
	}
	m, _ := NewMachine(sim.NewPRAM(2), progs)
	scratch, _ := NewMachine(sim.NewPRAM(2), progs)
	other, _ := NewMachine(sim.NewPRAM(1), progs[:1])
	for _, st := range []struct {
		m      *Machine
		thread int
	}{{m, 0}, {scratch, 1}, {scratch, 1}, {scratch, 0}, {scratch, 0}, {other, 0}} {
		if err := st.m.StepThread(st.thread); err != nil {
			t.Fatal(err)
		}
	}
	fp := m.Fingerprint()
	if got := string(m.AppendFingerprint([]byte("p"))); got != "p"+fp {
		t.Errorf("AppendFingerprint does not append Fingerprint's bytes")
	}
	for _, dst := range []*Machine{scratch, other} {
		c := m.CloneInto(dst)
		if c != dst {
			t.Error("CloneInto did not reuse its destination")
		}
		if c.Fingerprint() != fp || m.Clone().Fingerprint() != fp {
			t.Error("copy fingerprints differently from the original")
		}
		for i := range m.NumThreads() {
			if !reflect.DeepEqual(c.Registers(i), m.Registers(i)) {
				t.Errorf("thread %d registers %v, want %v", i, c.Registers(i), m.Registers(i))
			}
		}
		if err := c.StepThread(0); err != nil {
			t.Fatal(err)
		}
		if m.Fingerprint() != fp {
			t.Error("stepping the copy mutated the original")
		}
	}
}

// TestSetThreadKeyRoundTrip: loading every thread's key, and copying the
// memory, into a machine that ran another schedule of the same programs
// reproduces the machine, fingerprint, registers and next steps alike;
// AppendFingerprint begins with the threads' keys; and a key written for
// a thread with another register count is rejected.
func TestSetThreadKeyRoundTrip(t *testing.T) {
	progs := [][]Stmt{
		{Store{Loc: "x", E: Const(1)}, Load{Dst: "a", Loc: "y"}, CSEnter{}, Assign{Dst: "b", E: Bin{Op: Add, L: Local("a"), R: Const(-3)}}, CSExit{}},
		{Store{Loc: "y", E: Const(1)}, Load{Dst: "c", Loc: "x"}},
	}
	m, _ := NewMachine(sim.NewPRAM(2), progs)
	c := m.Clone()
	for _, i := range []int{1, 0, 1, 0, 0} {
		if err := m.StepThread(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.StepThread(0); err != nil {
		t.Fatal(err)
	}
	var threads []byte
	for i := range m.NumThreads() {
		key := m.AppendThreadKey(nil, i)
		threads = append(threads, key...)
		c.SetThreadKey(i, key)
	}
	m.Mem().CloneInto(c.Mem())
	if fp := m.AppendFingerprint(nil); string(fp[:len(threads)]) != string(threads) {
		t.Error("the fingerprint does not begin with the threads' keys")
	}
	for i := range m.NumThreads() {
		if c.Fingerprint() != m.Fingerprint() || !reflect.DeepEqual(c.Registers(i), m.Registers(i)) ||
			c.ThreadInCS(i) != m.ThreadInCS(i) || c.ThreadHalted(i) != m.ThreadHalted(i) {
			t.Fatalf("thread %d: loaded machine differs:\n%q\nwant\n%q", i, c.Fingerprint(), m.Fingerprint())
		}
	}
	if err := c.StepThread(0); err != nil {
		t.Fatal(err)
	}
	if err := m.StepThread(0); err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() != m.Fingerprint() {
		t.Error("the loaded machine steps differently")
	}
	defer func() {
		if recover() == nil {
			t.Error("a key for 2 registers was loaded into a thread with 1")
		}
	}()
	c.SetThreadKey(1, m.AppendThreadKey(nil, 0))
}

func TestLabeledOpsRecorded(t *testing.T) {
	progs := [][]Stmt{{
		Store{Loc: "s", E: Const(1), Labeled: true},
		Load{Dst: "v", Loc: "s", Labeled: true},
	}}
	mem := sim.NewSC(1)
	m, _ := NewMachine(mem, progs)
	if err := m.Run(seqSched); err != nil {
		t.Fatal(err)
	}
	s := mem.Recorder().System()
	ops := s.ProcOps(0)
	if len(ops) != 2 || !s.Op(ops[0]).IsRelease() || !s.Op(ops[1]).IsAcquire() {
		t.Errorf("recorded ops: %s", s)
	}
}

func TestCompileRejectsNilStatement(t *testing.T) {
	mem := sim.NewSC(1)
	if _, err := NewMachine(mem, [][]Stmt{{nil}}); err == nil {
		t.Error("nil statement accepted")
	}
}

func TestDynamicIndexing(t *testing.T) {
	// Write arr[0..2] = 10,11,12 via a loop, then sum them via a loop.
	prog := []Stmt{
		Assign{Dst: "i", E: Const(0)},
		While{
			Cond: Bin{Op: Lt, L: Local("i"), R: Const(3)},
			Body: []Stmt{
				Store{Loc: "arr", Idx: Local("i"), E: Bin{Op: Add, L: Const(10), R: Local("i")}},
				Assign{Dst: "i", E: Bin{Op: Add, L: Local("i"), R: Const(1)}},
			},
		},
		Assign{Dst: "i", E: Const(0)},
		Assign{Dst: "sum", E: Const(0)},
		While{
			Cond: Bin{Op: Lt, L: Local("i"), R: Const(3)},
			Body: []Stmt{
				Load{Dst: "v", Loc: "arr", Idx: Local("i")},
				Assign{Dst: "sum", E: Bin{Op: Add, L: Local("sum"), R: Local("v")}},
				Assign{Dst: "i", E: Bin{Op: Add, L: Local("i"), R: Const(1)}},
			},
		},
		Store{Loc: "out", E: Local("sum")},
	}
	mem := sim.NewSC(1)
	m, err := NewMachine(mem, [][]Stmt{prog})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(seqSched); err != nil {
		t.Fatal(err)
	}
	if got := mem.Read(0, "out", false); got != 33 {
		t.Errorf("sum = %d, want 33", got)
	}
	// The indexed locations must be recorded as arr[0], arr[1], arr[2].
	h := mem.Recorder().System()
	if h.LocIndex("arr[1]") < 0 {
		t.Errorf("indexed location not recorded: %s", h)
	}
}

func TestDynamicIndexMatchesStaticLocation(t *testing.T) {
	// arr[2] written via index expression reads back via static name.
	progs := [][]Stmt{{
		Assign{Dst: "k", E: Const(2)},
		Store{Loc: "arr", Idx: Local("k"), E: Const(9)},
		Load{Dst: "v", Loc: "arr[2]"},
		Store{Loc: "out", E: Local("v")},
	}}
	mem := sim.NewSC(1)
	m, _ := NewMachine(mem, progs)
	if err := m.Run(seqSched); err != nil {
		t.Fatal(err)
	}
	if got := mem.Read(0, "out", false); got != 9 {
		t.Errorf("out = %d, want 9", got)
	}
}
