package explore

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
)

// keySet is an exact set of state keys: the explorer's record of the
// states it has reached. Keys are stored once, back to back, each after its
// uvarint length, in append-only arena chunks. The index is an
// open-addressing table of uint64 slots, each holding a key's arena
// position and the top bits of its hash. Neither the chunks nor the slots
// hold pointers, so the garbage collector never scans them, and a state
// costs its key, a length byte and its share of the slots instead of a
// string header, a map entry and a heap object. Membership always compares
// the full key bytes; the hash only chooses where to probe and skips most
// slots that cannot match.
//
// A keySet is not safe for concurrent use by writers: any number of
// goroutines may call has at once, but none while add runs.
type keySet struct {
	seed   maphash.Seed
	chunks [][]byte // the arena; only the last chunk has room left
	slots  []uint64 // 0 is empty, else tag<<posBits | (arena position+1)
	n      int      // keys held
	used   int      // arena bytes in use
}

const (
	// chunkBits is the width of a key's offset in its chunk, so chunks
	// hold at most 1 MiB unless one key alone is larger. An arena
	// position is its chunk's index shifted past the offset.
	chunkBits = 20
	// posBits is the width of a slot's arena position, enough for 2^20
	// chunks (1 TiB of keys); the hash tag takes the other 24 bits.
	posBits  = 40
	posMask  = 1<<posBits - 1
	minChunk = 4 << 10
	maxChunk = 1 << chunkBits
	minSlots = 256
)

func newKeySet() *keySet {
	return &keySet{seed: maphash.MakeSeed(), slots: make([]uint64, minSlots)}
}

// has reports whether the set holds key.
func (s *keySet) has(key []byte) bool {
	_, ok := s.find(maphash.Bytes(s.seed, key), key)
	return ok
}

// add inserts key, copying it, and reports whether it was new.
func (s *keySet) add(key []byte) bool {
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	return s.insert(maphash.Bytes(s.seed, key), key)
}

// insert adds key, whose hash is h, to an index with a free slot, and
// reports whether it was new.
func (s *keySet) insert(h uint64, key []byte) bool {
	i, ok := s.find(h, key)
	if ok {
		return false
	}
	s.slots[i] = h>>posBits<<posBits | (s.store(key) + 1)
	s.n++
	return true
}

// bytes returns the bytes the set holds: its keys with their length
// prefixes, and its index. It depends only on the keys added, not on the
// order they were added in.
func (s *keySet) bytes() int { return s.used + 8*len(s.slots) }

// find probes for key, whose hash is h. It returns key's slot and true if
// the set holds key, otherwise the empty slot where key belongs and false.
func (s *keySet) find(h uint64, key []byte) (int, bool) {
	mask := len(s.slots) - 1
	tag := h >> posBits
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			return i, false
		}
		if e>>posBits == tag && bytes.Equal(s.key(e&posMask-1), key) {
			return i, true
		}
	}
}

// key returns the key stored at arena position pos.
func (s *keySet) key(pos uint64) []byte {
	c := s.chunks[pos>>chunkBits][pos&(maxChunk-1):]
	n, w := binary.Uvarint(c)
	return c[w : w+int(n)]
}

// store appends key to the arena and returns its position.
func (s *keySet) store(key []byte) uint64 {
	need := uvarintLen(len(key)) + len(key)
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < need {
		size := minChunk
		if last >= 0 {
			size = min(2*cap(s.chunks[last]), maxChunk)
		}
		s.chunks = append(s.chunks, make([]byte, 0, max(size, need)))
		last++
	}
	c := s.chunks[last]
	pos := uint64(last)<<chunkBits | uint64(len(c))
	c = binary.AppendUvarint(c, uint64(len(key)))
	s.chunks[last] = append(c, key...)
	s.used += need
	return pos
}

// grow doubles the index, re-placing every slot by its key's hash.
func (s *keySet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	mask := len(s.slots) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(maphash.Bytes(s.seed, s.key(e&posMask-1))) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

// uvarintLen returns the length of x's uvarint encoding.
func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}
