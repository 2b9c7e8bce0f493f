package sim

import (
	"cmp"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/history"
)

// locTable numbers a memory's locations, so that the simulators can keep
// their state in slices indexed by location id instead of maps keyed by
// name. A constructed memory and all of its clones share one table. Ids are
// handed out on first touch and never change; an id means nothing outside
// its table.
//
// The table is an immutable snapshot behind an atomic pointer, replaced by
// a grown copy when a new location appears. The explorer steps all its
// clones on one goroutine, but nothing stops a caller from running clones
// of one memory on several, so lookups stay lock-free and safe there too.
// Only growth takes the mutex.
type locTable struct {
	mu   sync.Mutex
	snap atomic.Pointer[locSnap]
}

// locSnap is one immutable state of a locTable.
type locSnap struct {
	ids    map[history.Loc]int
	names  []history.Loc // by id
	byName []int         // ids in location-name order
}

var emptySnap locSnap

// load returns the current snapshot. Every id handed out before the call,
// by this goroutine or by one it synchronized with, is in it.
func (t *locTable) load() *locSnap {
	if s := t.snap.Load(); s != nil {
		return s
	}
	return &emptySnap
}

// id returns loc's id, numbering loc if it is new.
func (t *locTable) id(loc history.Loc) int {
	if id, ok := t.load().ids[loc]; ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.load()
	if id, ok := old.ids[loc]; ok {
		return id // another clone numbered it meanwhile
	}
	id := len(old.names)
	s := &locSnap{
		ids:   make(map[history.Loc]int, id+1),
		names: append(slices.Clip(old.names), loc),
	}
	maps.Copy(s.ids, old.ids)
	s.ids[loc] = id
	at, _ := slices.BinarySearchFunc(old.byName, loc, func(i int, l history.Loc) int {
		return cmp.Compare(old.names[i], l)
	})
	s.byName = slices.Insert(slices.Clip(old.byName), at, id)
	t.snap.Store(s)
	return id
}

// name returns the location numbered id.
func (t *locTable) name(id int) history.Loc { return t.load().names[id] }

// grid is a dense table in one slice: a row per replica (or per channel)
// and a column per location id. Columns are added when a location is
// first stored; a column past the grid's width reads as the zero value,
// which for a cell means "never written" (written cells have nonzero
// tags).
type grid[T any] struct {
	rows, width int
	a           []T
}

// at returns the entry for (row, id).
func (g *grid[T]) at(row, id int) T {
	if id >= g.width {
		var zero T
		return zero
	}
	return g.a[row*g.width+id]
}

// ref returns the entry for (row, id), widening the grid if needed.
func (g *grid[T]) ref(row, id int) *T {
	if id >= g.width {
		a := make([]T, g.rows*(id+1))
		for r := range g.rows {
			copy(a[r*(id+1):], g.row(r))
		}
		g.a, g.width = a, id+1
	}
	return &g.a[row*g.width+id]
}

// row returns one row, indexed by location id.
func (g *grid[T]) row(r int) []T { return g.a[r*g.width : (r+1)*g.width] }

// copyFrom copies src into g's storage, growing it if it is too small.
// When g already has src's shape, as a copy of the same memory usually
// does, only the entries are copied and g's slice header is left as it is.
func (g *grid[T]) copyFrom(src grid[T]) {
	g.rows, g.width = src.rows, src.width
	copyInto(&g.a, src.a)
}

// copyInto copies src into *dst's storage, growing it if it is too small.
// When the lengths already match only the elements are copied: *dst's
// header, and with it its pointer, is not rewritten.
func copyInto[T any](dst *[]T, src []T) {
	if len(*dst) != len(src) {
		*dst = append((*dst)[:0], src...)
		return
	}
	copy(*dst, src)
}

// copyQueues copies a set of queues into *dst's storage. A queue whose
// slot in *dst has the capacity reuses that slot's storage, and keeps all
// of it; only its length is rewritten, and only when it differs. The
// others share one new element array, each clipped to its length, so
// appending to one reallocates it instead of overwriting its neighbour. A
// memory's queue storage is never shared with another memory, so reusing
// it overwrites nothing live, and the simulators dequeue in place
// (shifting the rest of the queue down), so a queue's capacity never
// shrinks: a memory that is copied into over and over stops allocating
// queue storage once each queue has held its longest contents.
func copyQueues[T any](dst *[][]T, qs [][]T) {
	d := *dst
	if len(d) != len(qs) {
		if cap(d) < len(qs) {
			d = make([][]T, len(qs))
		}
		d = d[:len(qs)]
		*dst = d
	}
	n := 0
	for i, q := range qs {
		if cap(d[i]) < len(q) {
			n += len(q)
		}
	}
	var all []T
	if n > 0 {
		all = make([]T, 0, n)
	}
	for i, q := range qs {
		if cap(d[i]) < len(q) {
			all = append(all, q...)
			d[i] = all[len(all)-len(q) : len(all) : len(all)]
			continue
		}
		if len(d[i]) != len(q) {
			d[i] = d[i][:len(q)]
		}
		copy(d[i], q)
	}
}

// bump increments the version counter of location id, growing the
// id-indexed counters as needed.
func bump(versions []int, id int) []int {
	if id >= len(versions) {
		versions = append(versions, make([]int, id+1-len(versions))...)
	}
	versions[id]++
	return versions
}
