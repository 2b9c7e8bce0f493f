package sim

import "repro/history"

// PRAMMemory is the pipelined-RAM machine of the paper's Section 3.5: every
// processor holds a complete replica of memory; a write applies locally and
// is broadcast on reliable point-to-point FIFO channels; reads are local.
// Updates from one sender arrive in order, but channels from different
// senders are independent — exactly PRAM's consistency.
//
// The coherent variant (NewPCG) stamps every write with a global
// per-location version and makes replicas apply an incoming update only if
// it is newer than what they hold, so all replicas order writes to each
// location identically. Replicated memory with FIFO channels plus this
// last-writer-wins rule implements Goodman's processor consistency
// (PRAM + coherence).
type PRAMMemory struct {
	name     string
	nprocs   int
	coherent bool
	locs     *locTable
	stores   grid[cell] // a row per replica
	channels [][]update // channels[sender*nprocs+receiver], oldest first
	versions []int      // by location id
	rec      Recorder
}

// NewPRAM returns a PRAM memory for nprocs processors.
func NewPRAM(nprocs int) *PRAMMemory { return newReplicated("PRAM", nprocs, false) }

// NewPCG returns a coherent PRAM memory (Goodman's processor consistency)
// for nprocs processors.
func NewPCG(nprocs int) *PRAMMemory { return newReplicated("PCG", nprocs, true) }

func newReplicated(name string, nprocs int, coherent bool) *PRAMMemory {
	return &PRAMMemory{
		name:     name,
		nprocs:   nprocs,
		coherent: coherent,
		locs:     new(locTable),
		stores:   grid[cell]{rows: nprocs},
		channels: make([][]update, nprocs*nprocs),
		rec:      newRecorder(nprocs),
	}
}

// Name implements Memory.
func (m *PRAMMemory) Name() string { return m.name }

// NumProcs implements Memory.
func (m *PRAMMemory) NumProcs() int { return m.nprocs }

// Read implements Memory: local replica.
func (m *PRAMMemory) Read(p history.Proc, loc history.Loc, labeled bool) history.Value {
	c := m.stores.at(int(p), m.locs.id(loc))
	m.rec.Read(p, loc, c.tag, labeled)
	return c.val
}

// Write implements Memory: apply locally, broadcast to every other replica.
//
// In the coherent variant, the writer first pulls, from each incoming
// channel, the FIFO prefix up to and including the last write to the same
// location. Its own write then serializes (by version) after every earlier
// write to the location it is obliged to order behind, together with the
// senders' program-order predecessors of those writes — without this,
// last-writer-wins dropping produces histories outside Goodman's PC: the
// writer's subsequent reads could miss writes that program-order precede
// same-location writes its own write supersedes (found by the
// simulator-versus-checker cross-validation tests).
func (m *PRAMMemory) Write(p history.Proc, loc history.Loc, v history.Value, labeled bool) {
	id := m.locs.id(loc)
	if m.coherent {
		m.pullPrefix(p, id)
	}
	tag := m.rec.Write(p, loc, labeled)
	m.versions = bump(m.versions, id)
	c := cell{val: v, tag: tag, version: m.versions[id]}
	m.apply(p, id, c)
	for q := 0; q < m.nprocs; q++ {
		if q != int(p) {
			ch := &m.channels[int(p)*m.nprocs+q]
			*ch = append(*ch, update{loc: id, cell: c, labeled: labeled})
		}
	}
}

// pullPrefix delivers, from every channel into p, the prefix up to and
// including the last queued write to location id.
func (m *PRAMMemory) pullPrefix(p history.Proc, loc int) {
	for s := 0; s < m.nprocs; s++ {
		ch := m.channels[s*m.nprocs+int(p)]
		last := -1
		for i, u := range ch {
			if u.loc == loc {
				last = i
			}
		}
		if last < 0 {
			continue
		}
		for i := 0; i <= last; i++ {
			m.apply(p, ch[i].loc, ch[i].cell)
		}
		m.channels[s*m.nprocs+int(p)] = append(ch[:0], ch[last+1:]...)
	}
}

// apply installs a cell into a replica, honoring coherence if enabled.
func (m *PRAMMemory) apply(p history.Proc, loc int, c cell) {
	if m.coherent && m.stores.at(int(p), loc).version > c.version {
		return // a newer write already reached this replica
	}
	*m.stores.ref(int(p), loc) = c
}

// Internal implements Memory: one delivery per nonempty channel.
func (m *PRAMMemory) Internal() []string { return describeInternal(m) }

// DescribeInternal implements Memory.
func (m *PRAMMemory) DescribeInternal(i int) string {
	k := nthNonempty(m.channels, i)
	return deliverName(k/m.nprocs, k%m.nprocs, m.locs.name(m.channels[k][0].loc))
}

// NumInternal implements Memory.
func (m *PRAMMemory) NumInternal() int {
	n := 0
	for _, ch := range m.channels {
		if len(ch) > 0 {
			n++
		}
	}
	return n
}

// Step implements Memory: deliver the oldest update of the i-th nonempty
// channel.
func (m *PRAMMemory) Step(i int) {
	k := nthNonempty(m.channels, i)
	ch := m.channels[k]
	m.apply(history.Proc(k%m.nprocs), ch[0].loc, ch[0].cell)
	m.channels[k] = append(ch[:0], ch[1:]...)
}

// Clone implements Memory.
func (m *PRAMMemory) Clone() Memory { return m.CloneInto(nil) }

// CloneInto implements Memory.
func (m *PRAMMemory) CloneInto(dst Memory) Memory {
	d, _ := dst.(*PRAMMemory)
	if d == nil {
		d = new(PRAMMemory)
	}
	if d.locs != m.locs {
		d.name, d.nprocs, d.coherent, d.locs = m.name, m.nprocs, m.coherent, m.locs
	}
	d.stores.copyFrom(m.stores)
	copyQueues(&d.channels, m.channels)
	copyInto(&d.versions, m.versions)
	d.rec.copyFrom(&m.rec)
	return d
}

// AppendFingerprint implements Memory.
func (m *PRAMMemory) AppendFingerprint(dst []byte) []byte { return m.encode(dst, false) }

// AppendKey implements Memory.
func (m *PRAMMemory) AppendKey(dst []byte) []byte { return m.encode(dst, true) }

// encode appends the fingerprint, or with byID the key, of m's state.
func (m *PRAMMemory) encode(dst []byte, byID bool) []byte {
	e := &encoder{dst: dst, table: m.locs, byID: byID}
	for e.pass() {
		for p := range m.nprocs {
			e.replica(m.stores.row(p))
		}
		for _, ch := range m.channels {
			e.queue(ch)
		}
	}
	return e.dst
}

// Recorder implements Memory.
func (m *PRAMMemory) Recorder() *Recorder { return &m.rec }
