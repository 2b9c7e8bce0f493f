package sim

import (
	"fmt"
	"maps"
	"sort"

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
	stores []map[history.Loc]cell
	// channels[sender][receiver][loc] is a FIFO of in-flight updates.
	channels []([]map[history.Loc][]update)
	rec      Recorder
}

// NewSlow returns a slow memory for nprocs processors.
func NewSlow(nprocs int) *SlowMemory {
	m := &SlowMemory{
		nprocs:   nprocs,
		stores:   make([]map[history.Loc]cell, nprocs),
		channels: make([][]map[history.Loc][]update, nprocs),
		rec:      newRecorder(nprocs),
	}
	for p := range m.stores {
		m.stores[p] = make(map[history.Loc]cell)
		m.channels[p] = make([]map[history.Loc][]update, nprocs)
		for q := range m.channels[p] {
			m.channels[p][q] = make(map[history.Loc][]update)
		}
	}
	return m
}

// Name implements Memory.
func (m *SlowMemory) Name() string { return "Slow" }

// NumProcs implements Memory.
func (m *SlowMemory) NumProcs() int { return m.nprocs }

// Read implements Memory: local replica.
func (m *SlowMemory) Read(p history.Proc, loc history.Loc, labeled bool) history.Value {
	c := m.stores[p][loc]
	m.rec.Read(p, loc, c.tag, labeled)
	return c.val
}

// Write implements Memory: apply locally, enqueue per (receiver, location).
func (m *SlowMemory) Write(p history.Proc, loc history.Loc, v history.Value, labeled bool) {
	tag := m.rec.Write(p, loc, labeled)
	c := cell{val: v, tag: tag}
	m.stores[p][loc] = c
	for q := 0; q < m.nprocs; q++ {
		if q != int(p) {
			m.channels[p][q][loc] = append(m.channels[p][q][loc], update{loc: loc, cell: c, labeled: labeled})
		}
	}
}

// lanes enumerates nonempty (sender, receiver, loc) lanes deterministically.
func (m *SlowMemory) lanes() []struct {
	s, r int
	loc  history.Loc
} {
	var out []struct {
		s, r int
		loc  history.Loc
	}
	for s := range m.channels {
		for r := range m.channels[s] {
			locs := make([]string, 0, len(m.channels[s][r]))
			for loc, q := range m.channels[s][r] {
				if len(q) > 0 {
					locs = append(locs, string(loc))
				}
			}
			sort.Strings(locs)
			for _, loc := range locs {
				out = append(out, struct {
					s, r int
					loc  history.Loc
				}{s, r, history.Loc(loc)})
			}
		}
	}
	return out
}

// Internal implements Memory: one delivery per nonempty lane.
func (m *SlowMemory) Internal() []string {
	var out []string
	for _, l := range m.lanes() {
		out = append(out, fmt.Sprintf("deliver p%d→p%d %s", l.s, l.r, l.loc))
	}
	return out
}

// Step implements Memory.
func (m *SlowMemory) Step(i int) {
	ls := m.lanes()
	if i < 0 || i >= len(ls) {
		panic("sim: Slow Step index out of range")
	}
	l := ls[i]
	q := m.channels[l.s][l.r][l.loc]
	m.stores[l.r][l.loc] = q[0].cell
	m.channels[l.s][l.r][l.loc] = q[1:]
	if len(m.channels[l.s][l.r][l.loc]) == 0 {
		delete(m.channels[l.s][l.r], l.loc)
	}
}

// Clone implements Memory.
func (m *SlowMemory) Clone() Memory {
	c := &SlowMemory{
		nprocs:   m.nprocs,
		stores:   make([]map[history.Loc]cell, m.nprocs),
		channels: make([][]map[history.Loc][]update, m.nprocs),
		rec:      m.rec,
	}
	for p := range m.stores {
		c.stores[p] = maps.Clone(m.stores[p])
		c.channels[p] = make([]map[history.Loc][]update, m.nprocs)
		for q := range m.channels[p] {
			c.channels[p][q] = make(map[history.Loc][]update, len(m.channels[p][q]))
			for loc, lane := range m.channels[p][q] {
				c.channels[p][q][loc] = append([]update(nil), lane...)
			}
		}
	}
	return c
}

// Fingerprint implements Memory.
func (m *SlowMemory) Fingerprint() string {
	f := newFingerprinter()
	for _, store := range m.stores {
		f.store(store)
	}
	lanes := m.lanes()
	f.int(len(lanes))
	for _, l := range lanes {
		f.int(l.s)
		f.int(l.r)
		f.loc(l.loc)
		f.queue(m.channels[l.s][l.r][l.loc])
	}
	return f.finish()
}

// Recorder implements Memory.
func (m *SlowMemory) Recorder() *Recorder { return &m.rec }
