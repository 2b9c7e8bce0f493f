package history

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func mustParse(t *testing.T, text string) *System {
	t.Helper()
	s, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(%q): %v", text, err)
	}
	return s
}

func TestBuilderAssignsDenseIDs(t *testing.T) {
	b := NewBuilder(2)
	b.Write(0, "x", 1).Read(0, "y", 0)
	b.Write(1, "y", 1).Read(1, "x", 0)
	s := b.System()
	if s.NumOps() != 4 {
		t.Fatalf("NumOps = %d, want 4", s.NumOps())
	}
	if s.NumProcs() != 2 {
		t.Fatalf("NumProcs = %d, want 2", s.NumProcs())
	}
	for i, id := range s.Ops() {
		if int(id) != i {
			t.Errorf("Ops()[%d] = %d, want %d", i, id, i)
		}
		if s.Op(id).ID != id {
			t.Errorf("Op(%d).ID = %d", id, s.Op(id).ID)
		}
	}
	if got := s.ProcOps(1); len(got) != 2 || s.Op(got[0]).Loc != "y" {
		t.Errorf("ProcOps(1) = %v", got)
	}
}

func TestBuilderAddProc(t *testing.T) {
	b := NewBuilder(0)
	p := b.AddProc()
	q := b.AddProc()
	if p != 0 || q != 1 {
		t.Fatalf("AddProc returned %d, %d", p, q)
	}
	b.Write(p, "x", 1)
	b.Read(q, "x", 1)
	s := b.System()
	if s.NumProcs() != 2 || s.NumOps() != 2 {
		t.Fatalf("got %d procs %d ops", s.NumProcs(), s.NumOps())
	}
}

func TestBuilderPanicsOnBadProc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range processor")
		}
	}()
	NewBuilder(1).Write(3, "x", 1)
}

func TestOpString(t *testing.T) {
	cases := []struct {
		op   Op
		want string
	}{
		{Op{Proc: 0, Kind: Write, Loc: "x", Value: 1}, "w0(x)1"},
		{Op{Proc: 2, Kind: Read, Loc: "y", Value: 0}, "r2(y)0"},
		{Op{Proc: 1, Kind: Write, Labeled: true, Loc: "n[2]", Value: 7}, "W1(n[2])7"},
		{Op{Proc: 3, Kind: Read, Labeled: true, Loc: "c", Value: 5}, "R3(c)5"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Errorf("Kind strings wrong: %q %q", Read, Write)
	}
	if got := Kind(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestParseFigure1(t *testing.T) {
	s := mustParse(t, "p: w(x)1 r(y)0\nq: w(y)1 r(x)0")
	if s.NumProcs() != 2 || s.NumOps() != 4 {
		t.Fatalf("got %d procs, %d ops", s.NumProcs(), s.NumOps())
	}
	o := s.Op(s.ProcOps(0)[0])
	if o.Kind != Write || o.Loc != "x" || o.Value != 1 || o.Labeled {
		t.Errorf("first op = %+v", o)
	}
	o = s.Op(s.ProcOps(1)[1])
	if o.Kind != Read || o.Loc != "x" || o.Value != 0 {
		t.Errorf("last op = %+v", o)
	}
}

func TestParseSingleLine(t *testing.T) {
	a := mustParse(t, "w(x)1 r(y)0 | w(y)1 r(x)0")
	b := mustParse(t, "p0: w(x)1 r(y)0\np1: w(y)1 r(x)0")
	if a.String() != b.String() {
		t.Errorf("single-line and multi-line forms differ:\n%s\n%s", a, b)
	}
}

func TestParseLabeled(t *testing.T) {
	s := mustParse(t, "W(choosing[0])1 R(number[1])0")
	ops := s.ProcOps(0)
	if !s.Op(ops[0]).IsRelease() {
		t.Errorf("op 0 should be a release: %v", s.Op(ops[0]))
	}
	if !s.Op(ops[1]).IsAcquire() {
		t.Errorf("op 1 should be an acquire: %v", s.Op(ops[1]))
	}
	if s.Op(ops[1]).Loc != "number[1]" {
		t.Errorf("loc = %q", s.Op(ops[1]).Loc)
	}
}

func TestParseNegativeValue(t *testing.T) {
	s := mustParse(t, "w(x)-3 r(x)-3")
	if s.Op(0).Value != -3 {
		t.Errorf("value = %d, want -3", s.Op(0).Value)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"q(x)1",
		"w[x]1",
		"w(x",
		"w()1",
		"w(x)abc",
		"w(a!b)1",
		"wx",
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	texts := []string{
		"p0: w(x)1 r(y)0\np1: w(y)1 r(x)0\n",
		"p0: w(x)1\np1: r(x)1 w(y)1\np2: r(y)1 r(x)0\n",
		"p0: W(s)1 r(d)0 w(d)5 W(s)2\np1: R(s)2 r(d)5\n",
	}
	for _, text := range texts {
		s := mustParse(t, text)
		if got := Format(s); got != text {
			t.Errorf("Format = %q, want %q", got, text)
		}
		s2 := mustParse(t, Format(s))
		if Format(s2) != Format(s) {
			t.Errorf("round trip changed history")
		}
	}
}

func TestParseEmptyProcessor(t *testing.T) {
	s := mustParse(t, "p0: w(x)1\np1:")
	if s.NumProcs() != 2 {
		t.Fatalf("NumProcs = %d, want 2", s.NumProcs())
	}
	if len(s.ProcOps(1)) != 0 {
		t.Errorf("p1 should be empty, got %v", s.ProcOps(1))
	}
}

// TestLocsManyLocations builds histories over more locations than
// sortedLocs scans for, each location used twice in a shuffled order, and
// checks that Locs lists each once, sorted, and that LocOf and LocIndex
// agree with it.
func TestLocsManyLocations(t *testing.T) {
	for _, nLocs := range []int{15, 16, 17, 40} {
		rng := rand.New(rand.NewSource(int64(nLocs)))
		var locs []Loc
		for i := range nLocs {
			locs = append(locs, Loc(fmt.Sprintf("l%02d", i)), Loc(fmt.Sprintf("l%02d", i)))
		}
		rng.Shuffle(len(locs), func(i, j int) { locs[i], locs[j] = locs[j], locs[i] })
		b := NewBuilder(2)
		for i, l := range locs {
			b.Write(Proc(i%2), l, Value(i+1))
		}
		s := b.System()
		got := s.Locs()
		if len(got) != nLocs || !slices.IsSorted(got) {
			t.Fatalf("%d locations: Locs = %v", nLocs, got)
		}
		for _, id := range s.Ops() {
			loc := s.Op(id).Loc
			if i := s.LocOf(id); got[i] != loc || s.LocIndex(loc) != i {
				t.Errorf("%d locations: op %d on %s has LocOf %d, LocIndex %d", nLocs, id, loc, i, s.LocIndex(loc))
			}
		}
	}
}

func TestLocsSortedAndIndexed(t *testing.T) {
	s := mustParse(t, "w(z)1 w(a)1 w(m)1")
	locs := s.Locs()
	want := []Loc{"a", "m", "z"}
	if len(locs) != 3 {
		t.Fatalf("Locs = %v", locs)
	}
	for i, l := range want {
		if locs[i] != l {
			t.Errorf("Locs[%d] = %q, want %q", i, locs[i], l)
		}
		if s.LocIndex(l) != i {
			t.Errorf("LocIndex(%q) = %d, want %d", l, s.LocIndex(l), i)
		}
	}
	if s.LocIndex("nope") != -1 {
		t.Errorf("LocIndex of absent loc should be -1")
	}
}

func TestSelectors(t *testing.T) {
	s := mustParse(t, "p0: w(x)1 r(y)0 W(s)1\np1: w(y)1 R(s)1")
	if got := s.Writes(); len(got) != 3 {
		t.Errorf("Writes = %v, want 3 writes", got)
	}
	if got := s.WritesTo("y"); len(got) != 1 || s.Op(got[0]).Proc != 1 {
		t.Errorf("WritesTo(y) = %v", got)
	}
	if got := s.OpsOn("s"); len(got) != 2 {
		t.Errorf("OpsOn(s) = %v", got)
	}
	if got := s.Labeled(); len(got) != 2 {
		t.Errorf("Labeled = %v", got)
	}
	// View ops of p0: its 3 ops plus p1's write w(y)1 (R(s)1 is a read).
	if got := s.ViewOps(0); len(got) != 4 {
		t.Errorf("ViewOps(0) = %v, want 4 ops", got)
	}
	// View ops of p1: its 2 ops plus p0's w(x)1 and W(s)1 (not the read).
	if got := s.ViewOps(1); len(got) != 4 {
		t.Errorf("ViewOps(1) = %v, want 4 ops", got)
	}
}

func TestWriterOf(t *testing.T) {
	s := mustParse(t, "p0: w(x)1\np1: r(x)1 r(y)0")
	r := s.ProcOps(1)[0]
	w, ok, err := s.WriterOf(r)
	if err != nil || !ok || s.Op(w).Proc != 0 {
		t.Errorf("WriterOf(r(x)1) = %v, %v, %v", w, ok, err)
	}
	r0 := s.ProcOps(1)[1]
	w, ok, err = s.WriterOf(r0)
	if err != nil || ok || w != NoOp {
		t.Errorf("WriterOf(r(y)0) = %v, %v, %v; want initial-value read", w, ok, err)
	}
}

func TestWriterOfErrors(t *testing.T) {
	s := mustParse(t, "p0: w(x)1 w(x)1\np1: r(x)1 r(x)7 w(x)0 r(x)0")
	p1 := s.ProcOps(1)
	if _, _, err := s.WriterOf(p1[0]); err == nil {
		t.Error("duplicate writers: want error")
	}
	if _, _, err := s.WriterOf(p1[1]); err == nil {
		t.Error("value never written: want error")
	}
	if _, _, err := s.WriterOf(p1[3]); err == nil {
		t.Error("ambiguous initial-vs-written 0: want error")
	}
	if _, _, err := s.WriterOf(p1[2]); err == nil {
		t.Error("WriterOf on a write: want error")
	}
}

// scanWriterOf is WriterOf as a scan of every operation, the reference
// the writers resolved at construction are held to.
func scanWriterOf(s *System, read OpID) (OpID, bool, error) {
	r := s.Op(read)
	if r.Kind != Read {
		return NoOp, false, fmt.Errorf("history: WriterOf(%v): not a read", r)
	}
	cand, n := NoOp, 0
	for i, o := range s.ops {
		if o.Kind == Write && o.Loc == r.Loc && o.Value == r.Value {
			cand = OpID(i)
			n++
		}
	}
	switch {
	case n == 0 && r.Value == Initial:
		return NoOp, false, nil
	case n == 0:
		return NoOp, false, fmt.Errorf("history: %v reads value never written to %s", r, r.Loc)
	case n == 1 && r.Value == Initial:
		return NoOp, false, fmt.Errorf("history: %v ambiguous: initial value or %v", r, s.Op(cand))
	case n == 1:
		return cand, true, nil
	default:
		return NoOp, false, fmt.Errorf("history: %v has %d candidate writers", r, n)
	}
}

// TestWriterOfMatchesScan holds WriterOf, whose answers are resolved when
// a System is built, to a scan of the whole history, on random histories
// whose few values make every case occur (a unique writer, the initial
// value, a value never written, a written 0, several writers) and on
// their canonical forms, whose writers are renamed from the original's.
func TestWriterOfMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string]int{}
	for range 500 {
		b := NewBuilder(1 + rng.Intn(3))
		for range rng.Intn(12) {
			p, loc, v := Proc(rng.Intn(len(b.procs))), Loc([]string{"x", "y", "z"}[rng.Intn(3)]), Value(rng.Intn(3))
			if rng.Intn(2) == 0 {
				b.Write(p, loc, v)
			} else {
				b.Read(p, loc, v)
			}
		}
		s := b.System()
		c, _, err := Canonicalize(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []*System{s, c} {
			for _, id := range h.Ops() {
				w, ok, err := h.WriterOf(id)
				ww, wok, werr := scanWriterOf(h, id)
				if w != ww || ok != wok || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%v: WriterOf(%v) = %v, %v, %v; scan %v, %v, %v", h, h.Op(id), w, ok, err, ww, wok, werr)
				}
				switch {
				case werr != nil:
					cases[strings.Fields(werr.Error())[2]]++
				case wok:
					cases["writer"]++
				default:
					cases["initial"]++
				}
			}
		}
	}
	if len(cases) < 6 {
		t.Errorf("cases met: %v, want every case", cases)
	}
}

func TestValidateDistinctWrites(t *testing.T) {
	ok := mustParse(t, "w(x)1 w(x)2 | w(y)1")
	if err := ok.ValidateDistinctWrites(); err != nil {
		t.Errorf("valid history rejected: %v", err)
	}
	dup := mustParse(t, "w(x)1 | w(x)1")
	if err := dup.ValidateDistinctWrites(); err == nil {
		t.Error("duplicate write values accepted")
	}
	zero := mustParse(t, "w(x)0")
	if err := zero.ValidateDistinctWrites(); err == nil {
		t.Error("write of initial value accepted")
	}
	// Same value at different locations is fine.
	cross := mustParse(t, "w(x)1 | w(y)1")
	if err := cross.ValidateDistinctWrites(); err != nil {
		t.Errorf("cross-location same value rejected: %v", err)
	}
}

func TestSystemString(t *testing.T) {
	s := mustParse(t, "p0: w(x)1 R(s)2\np1: W(s)2\n")
	want := "p0: w(x)1 R(s)2\np1: W(s)2\n"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
}
