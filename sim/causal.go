package sim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/history"
)

// CausalMemory is a replicated memory whose update delivery respects causal
// order, implemented with vector clocks in the style of causal broadcast:
// a write increments the writer's clock entry and is broadcast with the
// writer's clock; a replica may apply an update only when it has applied
// every causally earlier update (the standard vector-clock delivery
// condition). Reads are local. The histories it generates satisfy causal
// memory's requirement that views respect →co = (→po ∪ →wb)+.
type CausalMemory struct {
	nprocs  int
	locs    *locTable
	stores  grid[cell]    // a row per replica
	clocks  []int         // clocks[p*nprocs+q] = number of q's writes applied at p
	pending [][]causalMsg // per receiver, arbitrary order
	rec     Recorder
}

// causalMsg is an update in flight; vc is shared between the broadcast's
// copies and never mutated, and loc is the location's id.
type causalMsg struct {
	sender history.Proc
	vc     []int
	loc    int
	cell   cell
}

// NewCausal returns a causal memory for nprocs processors.
func NewCausal(nprocs int) *CausalMemory {
	return &CausalMemory{
		nprocs:  nprocs,
		locs:    new(locTable),
		stores:  grid[cell]{rows: nprocs},
		clocks:  make([]int, nprocs*nprocs),
		pending: make([][]causalMsg, nprocs),
		rec:     newRecorder(nprocs),
	}
}

// clock returns processor p's vector clock.
func (m *CausalMemory) clock(p int) []int { return m.clocks[p*m.nprocs : (p+1)*m.nprocs] }

// Name implements Memory.
func (m *CausalMemory) Name() string { return "Causal" }

// NumProcs implements Memory.
func (m *CausalMemory) NumProcs() int { return m.nprocs }

// Read implements Memory: local replica.
func (m *CausalMemory) Read(p history.Proc, loc history.Loc, labeled bool) history.Value {
	c := m.stores.at(int(p), m.locs.id(loc))
	m.rec.Read(p, loc, c.tag, labeled)
	return c.val
}

// Write implements Memory: bump own clock, apply locally, broadcast with
// the post-increment clock.
func (m *CausalMemory) Write(p history.Proc, loc history.Loc, v history.Value, labeled bool) {
	id := m.locs.id(loc)
	tag := m.rec.Write(p, loc, labeled)
	m.clock(int(p))[p]++
	c := cell{val: v, tag: tag}
	*m.stores.ref(int(p), id) = c
	vc := slices.Clone(m.clock(int(p)))
	for q := 0; q < m.nprocs; q++ {
		if q != int(p) {
			m.pending[q] = append(m.pending[q], causalMsg{sender: p, vc: vc, loc: id, cell: c})
		}
	}
}

// deliverable reports whether receiver r may apply msg now: it must be the
// next write of the sender, and every third-party write the sender had seen
// must already be applied at r.
func (m *CausalMemory) deliverable(r int, msg causalMsg) bool {
	clock := m.clock(r)
	for q := 0; q < m.nprocs; q++ {
		if q == int(msg.sender) {
			if clock[q]+1 != msg.vc[q] {
				return false
			}
		} else if clock[q] < msg.vc[q] {
			return false
		}
	}
	return true
}

// Internal implements Memory: one action per currently deliverable pending
// update.
func (m *CausalMemory) Internal() []string {
	var out []string
	for r := range m.pending {
		for _, msg := range m.pending[r] {
			if m.deliverable(r, msg) {
				out = append(out, fmt.Sprintf("deliver p%d→p%d %s", msg.sender, r, m.locs.name(msg.loc)))
			}
		}
	}
	return out
}

// NumInternal implements Memory.
func (m *CausalMemory) NumInternal() int {
	n := 0
	for r := range m.pending {
		for _, msg := range m.pending[r] {
			if m.deliverable(r, msg) {
				n++
			}
		}
	}
	return n
}

// Step implements Memory.
func (m *CausalMemory) Step(i int) {
	for r := range m.pending {
		for k, msg := range m.pending[r] {
			if !m.deliverable(r, msg) {
				continue
			}
			if i == 0 {
				*m.stores.ref(r, msg.loc) = msg.cell
				m.clock(r)[msg.sender]++
				m.pending[r] = append(m.pending[r][:k:k], m.pending[r][k+1:]...)
				return
			}
			i--
		}
	}
	panic("sim: causal Step index out of range")
}

// Clone implements Memory.
func (m *CausalMemory) Clone() Memory { return m.CloneInto(nil) }

// CloneInto implements Memory.
func (m *CausalMemory) CloneInto(dst Memory) Memory {
	d, _ := dst.(*CausalMemory)
	if d == nil {
		d = new(CausalMemory)
	}
	*d = CausalMemory{
		nprocs:  m.nprocs,
		locs:    m.locs,
		stores:  m.stores.cloneInto(d.stores),
		clocks:  append(d.clocks[:0], m.clocks...),
		pending: cloneQueuesInto(d.pending, m.pending),
		rec:     m.rec,
	}
	return d
}

// AppendFingerprint implements Memory.
func (m *CausalMemory) AppendFingerprint(dst []byte) []byte { return m.encode(dst, false) }

// AppendKey implements Memory.
func (m *CausalMemory) AppendKey(dst []byte) []byte { return m.encode(dst, true) }

// encode appends the fingerprint, or with byID the key, of m's state.
// Cell tags are canonicalized through the shared fingerprinter; vector
// clocks stay raw — their arithmetic (the +1-adjacency of the delivery
// condition) is semantic, so causal memory's state space genuinely grows
// with unbounded writes and write-looping programs need bounded
// exploration on it.
func (m *CausalMemory) encode(dst []byte, byID bool) []byte {
	f := newFingerprinter(m.locs, byID)
	for p := range m.nprocs {
		f.ints(m.clock(p))
		f.replica(m.stores.row(p))
	}
	for r := range m.pending {
		// Pending updates are delivered in any order, so they are
		// encoded sorted. A sender's writes carry distinct clocks, so
		// (sender, clock) is a key.
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
	return f.finish(dst)
}

// Recorder implements Memory.
func (m *CausalMemory) Recorder() *Recorder { return &m.rec }
