package relate

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/history"
	"repro/model"
)

func TestBuildMatrixParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	hs := CorpusHistories()
	for i := 0; i < 40; i++ {
		hs = append(hs, RandomHistory(rng, GenConfig{}))
	}
	seq := mustMatrix(t, hs, model.All(), 1)
	for _, workers := range []int{1, 2, 4} {
		par := mustMatrix(t, hs, model.All(), workers)
		if !reflect.DeepEqual(seq.Allowed, par.Allowed) {
			t.Errorf("workers=%d: Allowed differs: %v vs %v", workers, seq.Allowed, par.Allowed)
		}
		if !reflect.DeepEqual(seq.Sep, par.Sep) {
			t.Errorf("workers=%d: Sep differs", workers)
		}
		if !reflect.DeepEqual(seq.Classified, par.Classified) {
			t.Errorf("workers=%d: Classified differs", workers)
		}
	}
}

func TestDensityParallelMatchesSequential(t *testing.T) {
	seqCounts, seqTotal, err := density(2, 2, 2, model.All())
	if err != nil {
		t.Fatal(err)
	}
	parCounts, _, parTotal, err := Density(context.Background(), 2, 2, 2, 4, model.All())
	if err != nil {
		t.Fatal(err)
	}
	if seqTotal != parTotal {
		t.Errorf("totals differ: %d vs %d", seqTotal, parTotal)
	}
	if !reflect.DeepEqual(seqCounts, parCounts) {
		t.Errorf("densities differ:\nseq: %v\npar: %v", seqCounts, parCounts)
	}
}

func TestCheckLatticeExhaustiveParallelClean(t *testing.T) {
	violations, total, err := CheckLatticeExhaustive(context.Background(), 2, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 792 {
		t.Errorf("total = %d, want 792", total)
	}
	for _, v := range violations {
		t.Errorf("violation: %s", v)
	}
	seqViolations, seqTotal, err := checkLatticeExhaustive(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if seqTotal != total || len(seqViolations) != len(violations) {
		t.Errorf("sequential reference: %d histories, %d violations; parallel: %d, %d",
			seqTotal, len(seqViolations), total, len(violations))
	}
}

func TestDensityParallelDefaultWorkers(t *testing.T) {
	// workers = 0 must resolve to GOMAXPROCS and still be correct.
	counts, _, total, err := Density(context.Background(), 1, 2, 1, 0, []model.Model{model.SC})
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 {
		t.Errorf("total = %d, want 6", total)
	}
	// Of the six 1x2x1 histories, SC rejects r(l0)1 w(l0)1 (reading a
	// value before any write) and w(l0)1 r(l0)0 (missing the processor's
	// own write): 4 remain.
	if counts["SC"] != 4 {
		t.Errorf("SC density = %d, want 4", counts["SC"])
	}
}

// mustMatrix is BuildMatrix under a bare context, failing the test on a
// worker fault.
func mustMatrix(t testing.TB, hs []*history.System, models []model.Model, workers int) *Matrix {
	t.Helper()
	mx, err := BuildMatrix(context.Background(), hs, models, workers)
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

// density is the independent sequential reference for Density: one loop
// over the shape, every model checked in turn.
func density(procs, opsPerProc, locs int, models []model.Model) (counts map[string]int, total int, err error) {
	counts = make(map[string]int, len(models))
	EnumerateHistories(procs, opsPerProc, locs, func(s *history.System) bool {
		total++
		for _, m := range models {
			v, e := m.Allows(context.Background(), s)
			if e != nil {
				err = fmt.Errorf("relate: density: %s on %q: %w", m.Name(), s, e)
				return false
			}
			if v.Allowed {
				counts[m.Name()]++
			}
		}
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	return counts, total, nil
}

// checkLatticeExhaustive is the independent sequential reference for
// CheckLatticeExhaustive, returning the first counterexample found per
// violated containment.
func checkLatticeExhaustive(procs, opsPerProc, locs int) (violations []string, total int, err error) {
	byName := map[string]model.Model{}
	for _, m := range model.All() {
		byName[m.Name()] = m
	}
	lattice := PaperLattice()
	seen := map[string]bool{}
	EnumerateHistories(procs, opsPerProc, locs, func(s *history.System) bool {
		total++
		verdict := map[string]bool{}
		get := func(name string) (bool, bool) {
			if v, ok := verdict[name]; ok {
				return v, true
			}
			m, ok := byName[name]
			if !ok {
				return false, false
			}
			v, e := m.Allows(context.Background(), s)
			if e != nil {
				err = e
				return false, false
			}
			verdict[name] = v.Allowed
			return v.Allowed, true
		}
		for _, c := range lattice {
			if seen[c.Strong+c.Weak] {
				continue // already violated; report once
			}
			strong, ok := get(c.Strong)
			if err != nil {
				return false
			}
			if !ok || !strong {
				continue
			}
			weak, ok := get(c.Weak)
			if err != nil {
				return false
			}
			if ok && !weak {
				seen[c.Strong+c.Weak] = true
				violations = append(violations,
					fmt.Sprintf("%s ⊆ %s violated by %q", c.Strong, c.Weak, s))
			}
		}
		return true
	})
	if err != nil {
		return nil, total, err
	}
	return violations, total, nil
}
