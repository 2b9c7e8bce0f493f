package sim

import (
	"fmt"
	"iter"

	"repro/history"
)

// SlowMemory is an operational slow memory (Hutto and Ahamad 1990):
// replicated memory where each (sender, location) pair has its own FIFO
// channel to every other replica. Updates to one location from one writer
// arrive in order, but a writer's updates to different locations travel
// independently — weaker than PRAM's single per-sender pipe. Message
// passing therefore breaks on it: the flag can overtake the data.
type SlowMemory struct {
	nprocs int
	locs   *locTable
	stores grid[cell] // a row per replica
	// lanes.at(sender*nprocs+receiver, id) is a FIFO of in-flight
	// updates to location id.
	lanes grid[[]update]
	rec   Recorder
}

// NewSlow returns a slow memory for nprocs processors.
func NewSlow(nprocs int) *SlowMemory {
	return &SlowMemory{
		nprocs: nprocs,
		locs:   new(locTable),
		stores: grid[cell]{rows: nprocs},
		lanes:  grid[[]update]{rows: nprocs * nprocs},
		rec:    newRecorder(nprocs),
	}
}

// Name implements Memory.
func (m *SlowMemory) Name() string { return "Slow" }

// NumProcs implements Memory.
func (m *SlowMemory) NumProcs() int { return m.nprocs }

// Read implements Memory: local replica.
func (m *SlowMemory) Read(p history.Proc, loc history.Loc, labeled bool) history.Value {
	c := m.stores.at(int(p), m.locs.id(loc))
	m.rec.Read(p, loc, c.tag, labeled)
	return c.val
}

// Write implements Memory: apply locally, enqueue per (receiver, location).
func (m *SlowMemory) Write(p history.Proc, loc history.Loc, v history.Value, labeled bool) {
	id := m.locs.id(loc)
	tag := m.rec.Write(p, loc, labeled)
	c := cell{val: v, tag: tag}
	*m.stores.ref(int(p), id) = c
	for q := 0; q < m.nprocs; q++ {
		if q != int(p) {
			lane := m.lanes.ref(int(p)*m.nprocs+q, id)
			*lane = append(*lane, update{loc: id, cell: c, labeled: labeled})
		}
	}
}

// nonempty yields the nonempty lanes as (sender*nprocs+receiver, location
// id) in a fixed order: by sender, then receiver, then location name.
func (m *SlowMemory) nonempty() iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		byName := m.locs.load().byName
		for k := range m.lanes.rows {
			for _, id := range byName {
				if len(m.lanes.at(k, id)) > 0 && !yield(k, id) {
					return
				}
			}
		}
	}
}

// Internal implements Memory: one delivery per nonempty lane.
func (m *SlowMemory) Internal() []string {
	var out []string
	for k, id := range m.nonempty() {
		out = append(out, fmt.Sprintf("deliver p%d→p%d %s", k/m.nprocs, k%m.nprocs, m.locs.name(id)))
	}
	return out
}

// NumInternal implements Memory.
func (m *SlowMemory) NumInternal() int {
	n := 0
	for range m.nonempty() {
		n++
	}
	return n
}

// Step implements Memory.
func (m *SlowMemory) Step(i int) {
	for k, id := range m.nonempty() {
		if i > 0 {
			i--
			continue
		}
		lane := m.lanes.ref(k, id)
		*m.stores.ref(k%m.nprocs, id) = (*lane)[0].cell
		*lane = (*lane)[1:]
		return
	}
	panic("sim: Slow Step index out of range")
}

// Clone implements Memory.
func (m *SlowMemory) Clone() Memory { return m.CloneInto(nil) }

// CloneInto implements Memory.
func (m *SlowMemory) CloneInto(dst Memory) Memory {
	d, _ := dst.(*SlowMemory)
	if d == nil {
		d = new(SlowMemory)
	}
	lanes := m.lanes
	lanes.a = cloneQueuesInto(d.lanes.a, lanes.a)
	*d = SlowMemory{
		nprocs: m.nprocs,
		locs:   m.locs,
		stores: m.stores.cloneInto(d.stores),
		lanes:  lanes,
		rec:    m.rec,
	}
	return d
}

// AppendFingerprint implements Memory.
func (m *SlowMemory) AppendFingerprint(dst []byte) []byte { return m.encode(dst, false) }

// AppendKey implements Memory.
func (m *SlowMemory) AppendKey(dst []byte) []byte { return m.encode(dst, true) }

// encode appends the fingerprint, or with byID the key, of m's state.
func (m *SlowMemory) encode(dst []byte, byID bool) []byte {
	f := newFingerprinter(m.locs, byID)
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
	return f.finish(dst)
}

// Recorder implements Memory.
func (m *SlowMemory) Recorder() *Recorder { return &m.rec }
