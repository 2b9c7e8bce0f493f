package history

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a System from a textual history in the paper's figure
// notation. Each processor's history is one line (or one '|'-separated
// segment on a single line); an optional "pN:" prefix is allowed and
// ignored except that processors are always numbered in order of
// appearance. Operations are written
//
//	r(x)1   ordinary read of x returning 1
//	w(x)1   ordinary write of 1 to x
//	R(x)1   labeled read (acquire)
//	W(x)1   labeled write (release)
//
// Location names may contain letters, digits, '_', '.' and a bracketed
// index such as number[2]. Values are decimal integers. Example (the
// paper's Figure 1):
//
//	p: w(x)1 r(y)0
//	q: w(y)1 r(x)0
//
// which may equivalently be written "w(x)1 r(y)0 | w(y)1 r(x)0".
func Parse(text string) (*System, error) {
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("history: Parse: empty history")
	}
	sep := "|"
	if strings.ContainsRune(text, '\n') {
		sep = "\n"
	}
	b := &Builder{procs: make([][]Op, 0, strings.Count(text, sep)+1)}
	for ln := range strings.SplitSeq(text, sep) {
		if sep == "\n" && strings.TrimSpace(ln) == "" {
			continue
		}
		p := b.AddProc()
		ln = strings.TrimSpace(ln)
		if i := strings.IndexByte(ln, ':'); i >= 0 && !strings.ContainsAny(ln[:i], "()") {
			ln = strings.TrimSpace(ln[i+1:]) // drop "p:" / "p0:" prefix
		}
		if ln == "" {
			continue // a processor with no operations is permitted
		}
		b.procs[p] = make([]Op, 0, strings.Count(ln, ")"))
		for tok := range strings.FieldsSeq(ln) {
			op, err := parseOp(tok)
			if err != nil {
				return nil, fmt.Errorf("history: Parse: processor %d: %w", p, err)
			}
			b.add(p, op.Kind, op.Labeled, op.Loc, op.Value)
		}
	}
	return b.System(), nil
}

// MustParse is like Parse but panics on error. It is intended for
// package-level literals such as the litmus corpus.
func MustParse(text string) *System {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}

func parseOp(tok string) (Op, error) {
	var op Op
	if len(tok) < 5 { // minimum: "r(x)0"
		return op, fmt.Errorf("malformed operation %q", tok)
	}
	switch tok[0] {
	case 'r':
		op.Kind = Read
	case 'w':
		op.Kind = Write
	case 'R':
		op.Kind, op.Labeled = Read, true
	case 'W':
		op.Kind, op.Labeled = Write, true
	default:
		return op, fmt.Errorf("malformed operation %q: want leading r, w, R or W", tok)
	}
	if tok[1] != '(' {
		return op, fmt.Errorf("malformed operation %q: want '(' after kind", tok)
	}
	close := strings.IndexByte(tok, ')')
	if close < 0 {
		return op, fmt.Errorf("malformed operation %q: missing ')'", tok)
	}
	loc := tok[2:close]
	if loc == "" {
		return op, fmt.Errorf("malformed operation %q: empty location", tok)
	}
	for _, c := range loc {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '.', c == '[', c == ']':
		default:
			return op, fmt.Errorf("malformed operation %q: bad location character %q", tok, c)
		}
	}
	op.Loc = Loc(loc)
	v, err := strconv.Atoi(tok[close+1:])
	if err != nil {
		return op, fmt.Errorf("malformed operation %q: bad value: %v", tok, err)
	}
	op.Value = Value(v)
	return op, nil
}

// Format renders the System in the same textual form accepted by Parse,
// one processor per line with "pN:" prefixes. Parse(Format(s)) reproduces
// an identical history.
func Format(s *System) string { return s.String() }
