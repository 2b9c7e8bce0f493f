package history_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/history"
	"repro/litmus"
	"repro/relate"
	"repro/sim"
)

// This file keeps the first, fmt- and map-based canonicalizer as a
// test-only oracle: Canonicalize must produce the same canonical text, the
// same canonical System and the same Renaming on every history the
// repository checks.

// oracleCanonicalize is the reference Canonicalize: signatures, tie-break
// encodings and the canonical build written directly from their
// definitions.
func oracleCanonicalize(s *history.System) (string, *history.System, *history.Renaming, error) {
	n := s.NumProcs()
	sigs := make([]string, n)
	for p := 0; p < n; p++ {
		sigs[p] = oracleSignature(s, history.Proc(p))
	}
	order := make([]history.Proc, n)
	for i := range order {
		order[i] = history.Proc(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return sigs[order[i]] < sigs[order[j]] })
	var classes [][]history.Proc
	for i := 0; i < n; {
		j := i + 1
		for j < n && sigs[order[j]] == sigs[order[i]] {
			j++
		}
		classes = append(classes, order[i:j:j])
		i = j
	}
	total := 1
	for _, cl := range classes {
		for k := 2; k <= len(cl); k++ {
			if total *= k; total > 40320 {
				return "", nil, nil, fmt.Errorf("tie class of %d", len(cl))
			}
		}
	}
	best := ""
	var bestOrder []history.Proc
	cand := append([]history.Proc(nil), order...)
	oraclePermute(cand, classes, 0, func() {
		enc := oracleEncode(s, cand)
		if best == "" || enc < best {
			best = enc
			bestOrder = append(bestOrder[:0], cand...)
		}
	})
	cs, ren := oracleBuild(s, bestOrder)
	return best, cs, ren, nil
}

func oracleKind(o history.Op) byte {
	switch {
	case o.Kind == history.Read && !o.Labeled:
		return 'r'
	case o.Kind == history.Read:
		return 'R'
	case !o.Labeled:
		return 'w'
	}
	return 'W'
}

func oracleSignature(s *history.System, p history.Proc) string {
	var b strings.Builder
	locTok := make(map[history.Loc]int)
	valTok := make(map[history.Loc]map[history.Value]int)
	for _, id := range s.ProcOps(p) {
		o := s.Op(id)
		lt, ok := locTok[o.Loc]
		if !ok {
			lt = len(locTok)
			locTok[o.Loc] = lt
			valTok[o.Loc] = make(map[history.Value]int)
		}
		b.WriteByte(oracleKind(o))
		fmt.Fprintf(&b, "%d.", lt)
		if o.Value == history.Initial {
			b.WriteByte('z')
		} else {
			vt, ok := valTok[o.Loc][o.Value]
			if !ok {
				vt = len(valTok[o.Loc]) + 1
				valTok[o.Loc][o.Value] = vt
			}
			fmt.Fprintf(&b, "%d", vt)
		}
		b.WriteByte(' ')
	}
	return b.String()
}

func oraclePermute(cand []history.Proc, classes [][]history.Proc, ci int, f func()) {
	if ci == len(classes) {
		f()
		return
	}
	cl := classes[ci]
	off := 0
	for i := 0; i < ci; i++ {
		off += len(classes[i])
	}
	window := cand[off : off+len(cl)]
	var rec func(k int)
	rec = func(k int) {
		if k == len(window) {
			oraclePermute(cand, classes, ci+1, f)
			return
		}
		for i := k; i < len(window); i++ {
			window[k], window[i] = window[i], window[k]
			rec(k + 1)
			window[k], window[i] = window[i], window[k]
		}
	}
	rec(0)
	copy(window, cl)
}

func oracleEncode(s *history.System, order []history.Proc) string {
	var b strings.Builder
	locName := make(map[history.Loc]string)
	valNum := make(map[history.Loc]map[history.Value]history.Value)
	for cp, p := range order {
		fmt.Fprintf(&b, "p%d:", cp)
		for _, id := range s.ProcOps(p) {
			o := s.Op(id)
			ln, ok := locName[o.Loc]
			if !ok {
				ln = fmt.Sprintf("l%d", len(locName))
				locName[o.Loc] = ln
				valNum[o.Loc] = make(map[history.Value]history.Value)
			}
			v := history.Initial
			if o.Value != history.Initial {
				vn, ok := valNum[o.Loc][o.Value]
				if !ok {
					vn = history.Value(len(valNum[o.Loc]) + 1)
					valNum[o.Loc][o.Value] = vn
				}
				v = vn
			}
			fmt.Fprintf(&b, " %c(%s)%d", oracleKind(o), ln, v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func oracleBuild(s *history.System, order []history.Proc) (*history.System, *history.Renaming) {
	n := s.NumProcs()
	r := &history.Renaming{
		ProcTo:   make([]history.Proc, n),
		ProcFrom: make([]history.Proc, n),
		LocTo:    make(map[history.Loc]history.Loc),
		LocFrom:  make(map[history.Loc]history.Loc),
		ValTo:    make(map[history.Loc]map[history.Value]history.Value),
		ValFrom:  make(map[history.Loc]map[history.Value]history.Value),
		OpTo:     make([]history.OpID, s.NumOps()),
		OpFrom:   make([]history.OpID, s.NumOps()),
	}
	b := history.NewBuilder(n)
	next := history.OpID(0)
	for cp, p := range order {
		r.ProcTo[p] = history.Proc(cp)
		r.ProcFrom[cp] = p
		for _, id := range s.ProcOps(p) {
			o := s.Op(id)
			cloc, ok := r.LocTo[o.Loc]
			if !ok {
				cloc = history.Loc(fmt.Sprintf("l%d", len(r.LocTo)))
				r.LocTo[o.Loc] = cloc
				r.LocFrom[cloc] = o.Loc
				r.ValTo[o.Loc] = map[history.Value]history.Value{history.Initial: history.Initial}
				r.ValFrom[cloc] = map[history.Value]history.Value{history.Initial: history.Initial}
			}
			cv, ok := r.ValTo[o.Loc][o.Value]
			if !ok {
				cv = history.Value(len(r.ValTo[o.Loc]))
				r.ValTo[o.Loc][o.Value] = cv
				r.ValFrom[cloc][cv] = o.Value
			}
			cp := history.Proc(cp)
			switch {
			case o.Kind == history.Read && o.Labeled:
				b.Acquire(cp, cloc, cv)
			case o.Kind == history.Read:
				b.Read(cp, cloc, cv)
			case o.Labeled:
				b.Release(cp, cloc, cv)
			default:
				b.Write(cp, cloc, cv)
			}
			r.OpTo[id] = next
			r.OpFrom[next] = id
			next++
		}
	}
	return b.System(), r
}

// diffSystems describes the first difference between two Systems'
// observable structure, or returns "" when they are identical.
func diffSystems(got, want *history.System) string {
	switch {
	case got.NumProcs() != want.NumProcs() || got.NumOps() != want.NumOps():
		return fmt.Sprintf("shape %d procs/%d ops, want %d/%d", got.NumProcs(), got.NumOps(), want.NumProcs(), want.NumOps())
	case !reflect.DeepEqual(got.Locs(), want.Locs()):
		return fmt.Sprintf("Locs %v, want %v", got.Locs(), want.Locs())
	case history.FreshString(got) != history.FreshString(want):
		return "rendering differs"
	}
	for p := 0; p < got.NumProcs(); p++ {
		if !reflect.DeepEqual(got.ProcOps(history.Proc(p)), want.ProcOps(history.Proc(p))) {
			return fmt.Sprintf("ProcOps(%d) %v, want %v", p, got.ProcOps(history.Proc(p)), want.ProcOps(history.Proc(p)))
		}
	}
	for _, id := range want.Ops() {
		if got.Op(id) != want.Op(id) || got.LocOf(id) != want.LocOf(id) {
			return fmt.Sprintf("op %d: %+v (loc %d), want %+v (loc %d)", id, got.Op(id), got.LocOf(id), want.Op(id), want.LocOf(id))
		}
	}
	for _, l := range want.Locs() {
		if got.LocIndex(l) != want.LocIndex(l) {
			return fmt.Sprintf("LocIndex(%s) %d, want %d", l, got.LocIndex(l), want.LocIndex(l))
		}
	}
	return ""
}

// checkAgainstOracle fails t unless Canonicalize and the oracle agree on
// s: the same refusal, or the same text, System and Renaming.
func checkAgainstOracle(t *testing.T, name string, s *history.System) {
	t.Helper()
	wantText, wantSys, wantRen, werr := oracleCanonicalize(s)
	canon, ren, err := history.Canonicalize(s)
	if (err != nil) != (werr != nil) {
		t.Fatalf("%s: Canonicalize error %v, oracle error %v", name, err, werr)
	}
	if err != nil {
		return
	}
	if got := history.Format(canon); got != wantText {
		t.Fatalf("%s: canonical text\n%s\nwant\n%s", name, got, wantText)
	}
	if d := diffSystems(canon, wantSys); d != "" {
		t.Fatalf("%s: canonical System: %s", name, d)
	}
	if !reflect.DeepEqual(ren, wantRen) {
		t.Fatalf("%s: Renaming\n%+v\nwant\n%+v", name, ren, wantRen)
	}
}

// TestCanonicalizeMatchesOracle holds Canonicalize to the oracle on the
// litmus corpus, the exhaustive 2×2×2 shape sweep (792 histories) and
// 2,000 seeded 24-operation simulator runs over all nine memories, half of
// them with a labeled synchronization location.
func TestCanonicalizeMatchesOracle(t *testing.T) {
	for _, tc := range litmus.Corpus() {
		checkAgainstOracle(t, tc.Name, tc.History)
	}
	sweep := 0
	relate.EnumerateHistories(2, 2, 2, func(s *history.System) bool {
		checkAgainstOracle(t, fmt.Sprintf("sweep %d", sweep), s)
		sweep++
		return true
	})
	if sweep != 792 {
		t.Fatalf("2×2×2 sweep has %d histories, want 792", sweep)
	}
	// More than ten locations (canonical names then sort l10 before l2)
	// and a long history whose values recur across processors.
	wide := history.NewBuilder(3)
	for i := 0; i < 12; i++ {
		loc := history.Loc(fmt.Sprintf("v%d", 11-i))
		wide.Write(history.Proc(i%3), loc, history.Value(i+1)).Read(history.Proc((i+1)%3), loc, history.Value(i+1))
	}
	checkAgainstOracle(t, "twelve locations", wide.System())
	long := history.NewBuilder(4)
	for i := 0; i < 160; i++ {
		p, loc := history.Proc(i%4), history.Loc(fmt.Sprintf("m%d", i%5))
		if i%3 == 0 {
			long.Write(p, loc, history.Value(i+1))
		} else {
			long.Read(p, loc, history.Value((i/3)*3+1))
		}
	}
	checkAgainstOracle(t, "160 operations", long.System())

	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 2000; i++ {
		mems := sim.Memories(4)
		cfg := sim.RandomRunConfig{Ops: 24, MaxWrites: 10,
			DataLocs: []history.Loc{"x", "y", "z"}, PInternal: 0.5, DrainAtEnd: true}
		if i%2 == 1 {
			cfg.SyncLocs = []history.Loc{"s"}
		}
		s := sim.RandomRun(mems[i%len(mems)], rng, cfg)
		checkAgainstOracle(t, fmt.Sprintf("run %d:\n%s", i, s), s)
	}
}
