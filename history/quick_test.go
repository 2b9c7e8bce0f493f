package history

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genSystem wraps a random history for testing/quick.
type genSystem struct{ Sys *System }

// Generate implements quick.Generator.
func (genSystem) Generate(r *rand.Rand, _ int) reflect.Value {
	procs := 1 + r.Intn(4)
	ops := r.Intn(12)
	b := NewBuilder(procs)
	var next Value
	for i := 0; i < ops; i++ {
		p := Proc(r.Intn(procs))
		loc := Loc(fmt.Sprintf("l%d", r.Intn(3)))
		labeled := r.Intn(4) == 0
		switch {
		case r.Intn(2) == 0:
			next++
			if labeled {
				b.Release(p, loc, next)
			} else {
				b.Write(p, loc, next)
			}
		case labeled:
			b.Acquire(p, loc, Value(r.Intn(int(next)+1)))
		default:
			b.Read(p, loc, Value(r.Intn(int(next)+1)))
		}
	}
	// Guarantee at least one operation so Format/Parse round-trips.
	if ops == 0 {
		b.Write(0, "l0", 1)
	}
	return reflect.ValueOf(genSystem{b.System()})
}

// TestQuickFormatParseRoundTrip: Parse(Format(s)) reproduces the history
// exactly (operations, processors, labels, values).
func TestQuickFormatParseRoundTrip(t *testing.T) {
	prop := func(g genSystem) bool {
		text := Format(g.Sys)
		back, err := Parse(text)
		if err != nil {
			t.Logf("Parse(%q): %v", text, err)
			return false
		}
		if back.NumProcs() != g.Sys.NumProcs() || back.NumOps() != g.Sys.NumOps() {
			return false
		}
		for _, id := range g.Sys.Ops() {
			a, b := g.Sys.Op(id), back.Op(id)
			if a.Proc != b.Proc || a.Kind != b.Kind || a.Labeled != b.Labeled ||
				a.Loc != b.Loc || a.Value != b.Value || a.Index != b.Index {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// referenceLegal is an independent O(n²) legality check: for each read,
// scan backwards for the nearest write to its location.
func referenceLegal(s *System, v View) bool {
	for i, id := range v {
		o := s.Op(id)
		if o.Kind != Read {
			continue
		}
		want := Initial
		for j := i - 1; j >= 0; j-- {
			w := s.Op(v[j])
			if w.Kind == Write && w.Loc == o.Loc {
				want = w.Value
				break
			}
		}
		if o.Value != want {
			return false
		}
	}
	return true
}

// TestQuickLegalityMatchesReference compares View.Legal with the
// independent implementation on random permutations.
func TestQuickLegalityMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	prop := func(g genSystem) bool {
		v := View(g.Sys.Ops())
		r.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		return v.IsLegal(g.Sys) == referenceLegal(g.Sys, v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickProjectionsPartition: the writes projection and the labeled
// projection are subsequences, and per-processor projections partition the
// view.
func TestQuickProjectionsPartition(t *testing.T) {
	prop := func(g genSystem) bool {
		s := g.Sys
		v := View(s.Ops())
		total := 0
		for p := 0; p < s.NumProcs(); p++ {
			total += len(v.ProjectProc(s, Proc(p)))
		}
		if total != len(v) {
			return false
		}
		w := v.ProjectWrites(s)
		for _, id := range w {
			if s.Op(id).Kind != Write {
				return false
			}
		}
		// Subsequence check: positions strictly increase.
		last := -1
		for _, id := range w {
			pos := v.PositionOf(id)
			if pos <= last {
				return false
			}
			last = pos
		}
		lab := v.projectLabeled(s)
		if len(lab) != len(s.Labeled()) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickViewOpsInvariant: ViewOps(p) = own ops ∪ others' writes, and
// its size is |H_p| + |writes| − |own writes|.
func TestQuickViewOpsInvariant(t *testing.T) {
	prop := func(g genSystem) bool {
		s := g.Sys
		for p := 0; p < s.NumProcs(); p++ {
			proc := Proc(p)
			ownWrites := 0
			for _, id := range s.ProcOps(proc) {
				if s.Op(id).Kind == Write {
					ownWrites++
				}
			}
			want := len(s.ProcOps(proc)) + len(s.Writes()) - ownWrites
			if len(s.ViewOps(proc)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickBuilderCloneIndependent: mutating a clone leaves the original
// unchanged.
func TestQuickBuilderCloneIndependent(t *testing.T) {
	prop := func(g genSystem) bool {
		b := NewBuilder(g.Sys.NumProcs())
		for _, id := range g.Sys.Ops() {
			o := g.Sys.Op(id)
			b.procs[o.Proc] = append(b.procs[o.Proc], o)
		}
		before := b.NumRecorded()
		c := b.Clone()
		c.Write(0, "extra", 999)
		return b.NumRecorded() == before && c.NumRecorded() == before+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
