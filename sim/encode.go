package sim

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/history"
)

// encoder writes a canonical binary state encoding, for visited-state
// detection, straight into the caller's buffer. The encoding is exact — no
// hashing — so two states share a fingerprint only if they are equal up to
// the canonicalization below. Integers are varints, location names are
// length-prefixed, and every variable-length section (a replica, a queue,
// a clock) starts with its length, so the encoding of a state is
// unambiguous. Replicas list their written cells in location-name order,
// so the encoding does not depend on the order in which a memory numbered
// its locations.
//
// Raw tags and versions grow monotonically with every write — a program
// that writes in a retry loop would make semantically identical states
// fingerprint differently and blow up exhaustive exploration — so they are
// canonicalized per state:
//
//   - tags are renamed by first appearance (only tag EQUALITY matters:
//     tags decide which write a read records, never future behaviour);
//   - versions are replaced by their per-location rank (only the ORDER of
//     versions within one location matters: a replica applies an update
//     iff its version exceeds the held one, and any future write receives
//     a version above all existing ones).
//
// Two states with equal canonical fingerprints are bisimilar for invariant
// reachability.
//
// A key is built by the same encoder: byID writes each location as its id
// in the memory's table instead of its name. Within one table ids and
// names correspond one to one, and both are written prefix-free, so keys
// compare exactly as fingerprints do.
//
// A rank needs every version its location holds, so a memory's encode
// method describes its state once, in a loop over the encoder's two
// passes:
//
//	e := &encoder{dst: dst, table: m.locs, byID: byID}
//	for e.pass() {
//		e.replica(...)
//		...
//	}
//	return e.dst
//
// The first pass only collects each location's distinct versions; the
// second writes the bytes. The encoder keeps its working sets in fixed
// arrays, so one that lives on its caller's stack allocates nothing while
// a state has at most smallLocs locations, smallTags distinct tags and no
// version from 64 up. Taking the literal's address, as above, lets the
// compiler build it in place; a value literal would be built in a
// temporary and copied, arrays and all.
type encoder struct {
	dst    []byte
	table  *locTable // the memory's locations
	byID   bool      // write locations as ids: build a key
	passes int       // passes begun
	locs   *locSnap  // names and name order of the locations, when writing
	// low[id] has bit v set when location id holds version v < 64;
	// moreLow is the same for the ids from smallLocs up.
	low     [smallLocs]uint64
	moreLow []uint64
	// high[id] holds location id's versions from 64 up, sorted and
	// distinct.
	high [][]int
	// tags[i] is the raw tag numbered i, for i < ntags; the tags
	// numbered from smallTags up are in moreTags.
	tags     [smallTags]history.Value
	ntags    int
	moreTags []history.Value
}

const (
	smallLocs = 16
	smallTags = 32
)

// pass begins the next pass and reports whether there is one: it returns
// true twice, first for the pass that collects versions, then for the one
// that writes.
func (e *encoder) pass() bool {
	e.passes++
	if e.passes == 2 {
		e.locs = e.table.load()
	}
	return e.passes <= 2
}

// writing reports whether the current pass writes bytes.
func (e *encoder) writing() bool { return e.passes == 2 }

// lowOf returns location id's set of versions below 64.
func (e *encoder) lowOf(id int) *uint64 {
	if id < smallLocs {
		return &e.low[id]
	}
	id -= smallLocs
	if id >= len(e.moreLow) {
		e.moreLow = append(e.moreLow, make([]uint64, id+1-len(e.moreLow))...)
	}
	return &e.moreLow[id]
}

// collect adds version v to location id's set.
func (e *encoder) collect(id, v int) {
	if uint(v) < 64 {
		*e.lowOf(id) |= 1 << v
		return
	}
	if id >= len(e.high) {
		e.high = append(e.high, make([][]int, id+1-len(e.high))...)
	}
	if i, found := slices.BinarySearch(e.high[id], v); !found {
		e.high[id] = slices.Insert(e.high[id], i, v)
	}
}

// rank returns the number of distinct versions below v that location id
// holds.
func (e *encoder) rank(id, v int) int {
	low := *e.lowOf(id)
	if uint(v) < 64 {
		return bits.OnesCount64(low & (1<<v - 1))
	}
	i, _ := slices.BinarySearch(e.high[id], v)
	return bits.OnesCount64(low) + i
}

// tagID returns tag's canonical number, numbering it if it is new.
func (e *encoder) tagID(tag history.Value) int {
	for i := range e.ntags {
		if e.tags[i] == tag {
			return i
		}
	}
	for i, t := range e.moreTags {
		if t == tag {
			return smallTags + i
		}
	}
	if e.ntags < smallTags {
		e.tags[e.ntags] = tag
		e.ntags++
		return e.ntags - 1
	}
	e.moreTags = append(e.moreTags, tag)
	return smallTags + len(e.moreTags) - 1
}

// int writes a signed integer.
func (e *encoder) int(x int) {
	if e.writing() {
		e.dst = appendVarint(e.dst, x)
	}
}

// loc writes location id.
func (e *encoder) loc(id int) {
	if e.writing() {
		e.dst = e.appendLoc(e.dst, id)
	}
}

// ints writes a length-prefixed integer vector.
func (e *encoder) ints(xs []int) {
	if !e.writing() {
		return
	}
	d := appendVarint(e.dst, len(xs))
	for _, x := range xs {
		d = appendVarint(d, x)
	}
	e.dst = d
}

// cell collects the version of a cell of location id, or writes the cell.
func (e *encoder) cell(id int, c cell) {
	if e.writing() {
		e.dst = e.appendCell(e.dst, id, c)
	} else {
		e.collect(id, c.version)
	}
}

// replica writes a replica's written cells, named, in location-name
// order. The replica is indexed by location id.
func (e *encoder) replica(cells []cell) {
	if !e.writing() {
		for id, c := range cells {
			if c.tag != 0 {
				e.collect(id, c.version)
			}
		}
		return
	}
	n := 0
	for _, c := range cells {
		if c.tag != 0 {
			n++
		}
	}
	d := appendVarint(e.dst, n)
	for _, id := range e.locs.byName {
		if id < len(cells) && cells[id].tag != 0 {
			d = e.appendLoc(d, id)
			d = e.appendCell(d, id, cells[id])
		}
	}
	e.dst = d
}

// queue writes an update queue in order.
func (e *encoder) queue(q []update) {
	if !e.writing() {
		for _, u := range q {
			e.collect(u.loc, u.cell.version)
		}
		return
	}
	d := appendVarint(e.dst, len(q))
	for _, u := range q {
		d = e.appendLoc(d, u.loc)
		d = appendBool(d, u.labeled)
		d = e.appendCell(d, u.loc, u.cell)
	}
	e.dst = d
}

// appendLoc appends location id: its length-prefixed name, or in a key
// the id.
func (e *encoder) appendLoc(d []byte, id int) []byte {
	if e.byID {
		return appendUvarint(d, id)
	}
	l := e.locs.names[id]
	return append(appendVarint(d, len(l)), l...)
}

// appendCell appends a cell of location id: its value, its tag's number
// and its version's rank.
func (e *encoder) appendCell(d []byte, id int, c cell) []byte {
	d = appendVarint(d, int(c.val))
	d = appendUvarint(d, e.tagID(c.tag))
	return appendUvarint(d, e.rank(id, c.version))
}

// appendBool appends a flag.
func appendBool(d []byte, b bool) []byte {
	if b {
		return append(d, 1)
	}
	return append(d, 0)
}

// appendUvarint appends a nonnegative x as an unsigned varint, as
// binary.AppendUvarint does.
func appendUvarint(d []byte, x int) []byte {
	if uint(x) < 0x80 {
		return append(d, byte(x))
	}
	return binary.AppendUvarint(d, uint64(x))
}

// appendVarint appends x as a signed varint, as binary.AppendVarint does.
func appendVarint(dst []byte, x int) []byte {
	if uint(x) < 0x40 {
		return append(dst, byte(x<<1))
	}
	return binary.AppendVarint(dst, int64(x))
}
