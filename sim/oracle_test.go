package sim

import (
	"cmp"
	"encoding/binary"
	"slices"

	"repro/history"
)

// This file keeps the reference state encoder the direct encoder in
// encode.go replaced, as the oracle TestEncoderMatchesOracle compares it
// against. The reference writes literal bytes into raw and defers every
// cell; once the whole state is described, finish numbers tags on first
// appearance, ranks each cell's version by scanning all the versions its
// location holds, and splices the cells into the literal bytes.

// oracleFP is the reference encoder.
type oracleFP struct {
	locs  *locSnap
	byID  bool
	raw   []byte
	cells []oracleCell
	vers  [][]int
	tags  []history.Value
}

// oracleCell is a deferred cell; at is the length of raw when it was
// appended.
type oracleCell struct {
	at int
	id int
	c  cell
}

func newOracleFP(t *locTable, byID bool) *oracleFP {
	f := &oracleFP{locs: t.load(), byID: byID}
	f.vers = make([][]int, len(f.locs.names))
	return f
}

func (f *oracleFP) int(x int) { f.raw = binary.AppendVarint(f.raw, int64(x)) }

func (f *oracleFP) bool(b bool) {
	if b {
		f.raw = append(f.raw, 1)
	} else {
		f.raw = append(f.raw, 0)
	}
}

func (f *oracleFP) loc(id int) {
	if f.byID {
		f.raw = binary.AppendUvarint(f.raw, uint64(id))
		return
	}
	l := f.locs.names[id]
	f.int(len(l))
	f.raw = append(f.raw, l...)
}

func (f *oracleFP) ints(xs []int) {
	f.int(len(xs))
	for _, x := range xs {
		f.int(x)
	}
}

func (f *oracleFP) cell(id int, c cell) {
	f.cells = append(f.cells, oracleCell{at: len(f.raw), id: id, c: c})
	if !slices.Contains(f.vers[id], c.version) {
		f.vers[id] = append(f.vers[id], c.version)
	}
}

func (f *oracleFP) replica(cells []cell) {
	n := 0
	for _, c := range cells {
		if c.tag != 0 {
			n++
		}
	}
	f.int(n)
	for _, id := range f.locs.byName {
		if id < len(cells) && cells[id].tag != 0 {
			f.loc(id)
			f.cell(id, cells[id])
		}
	}
}

func (f *oracleFP) queue(q []update) {
	f.int(len(q))
	for _, u := range q {
		f.loc(u.loc)
		f.bool(u.labeled)
		f.cell(u.loc, u.cell)
	}
}

func (f *oracleFP) finish(dst []byte) []byte {
	prev := 0
	for _, t := range f.cells {
		dst = append(dst, f.raw[prev:t.at]...)
		prev = t.at
		id := slices.Index(f.tags, t.c.tag)
		if id < 0 {
			id = len(f.tags)
			f.tags = append(f.tags, t.c.tag)
		}
		rank := 0
		for _, v := range f.vers[t.id] {
			if v < t.c.version {
				rank++
			}
		}
		dst = binary.AppendVarint(dst, int64(t.c.val))
		dst = binary.AppendUvarint(dst, uint64(id))
		dst = binary.AppendUvarint(dst, uint64(rank))
	}
	return append(dst, f.raw[prev:]...)
}

// oracleEncode is the reference encoding of m: its fingerprint, or with
// byID its key, as the simulators' encode methods wrote it through the
// reference encoder.
func oracleEncode(m Memory, byID bool) []byte {
	switch m := m.(type) {
	case *SCMemory:
		f := newOracleFP(m.locs, byID)
		f.replica(m.store.row(0))
		return f.finish(nil)
	case *TSOMemory:
		f := newOracleFP(m.locs, byID)
		f.replica(m.store.row(0))
		for _, buf := range m.buffers {
			f.queue(buf)
		}
		return f.finish(nil)
	case *PRAMMemory:
		f := newOracleFP(m.locs, byID)
		for p := range m.nprocs {
			f.replica(m.stores.row(p))
		}
		for _, ch := range m.channels {
			f.queue(ch)
		}
		return f.finish(nil)
	case *CausalMemory:
		f := newOracleFP(m.locs, byID)
		for p := range m.nprocs {
			f.ints(m.clock(p))
			f.replica(m.stores.row(p))
		}
		for r := range m.pending {
			msgs := slices.Clone(m.pending[r])
			slices.SortFunc(msgs, func(a, b causalMsg) int {
				if c := cmp.Compare(a.sender, b.sender); c != 0 {
					return c
				}
				return slices.Compare(a.vc, b.vc)
			})
			f.int(len(msgs))
			for _, msg := range msgs {
				f.int(int(msg.sender))
				f.ints(msg.vc)
				f.loc(msg.loc)
				f.cell(msg.loc, msg.cell)
			}
		}
		return f.finish(nil)
	case *RCMemory:
		f := newOracleFP(m.locs, byID)
		f.replica(m.syncStore.row(0))
		for p := range m.nprocs {
			f.replica(m.stores.row(p))
		}
		for _, ch := range m.channels {
			f.queue(ch)
		}
		return f.finish(nil)
	case *SlowMemory:
		f := newOracleFP(m.locs, byID)
		for p := range m.nprocs {
			f.replica(m.stores.row(p))
		}
		n := 0
		for range m.nonempty() {
			n++
		}
		f.int(n)
		for k, id := range m.nonempty() {
			f.int(k / m.nprocs)
			f.int(k % m.nprocs)
			f.loc(id)
			f.queue(m.lanes.at(k, id))
		}
		return f.finish(nil)
	}
	panic("sim: no reference encoding for " + m.Name())
}
