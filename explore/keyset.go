package explore

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
)

// keySet is an exact set of byte keys that numbers them: the explorer's
// table of the thread and memory states its states are built from. Keys
// are stored once, back to back, each after its uvarint length, in
// append-only arena chunks, and the i-th key added gets id i. The index is
// an open-addressing table of uint64 slots, each holding a key's id and
// the top half of its hash; pos holds each id's arena position. Neither
// the chunks, the slots nor pos hold pointers, so the garbage collector
// never scans them, and a key costs its bytes, a length byte, its
// position and its share of the slots instead of a string header, a map
// entry and a heap object. Membership always compares the full key bytes;
// the hash only chooses where to probe and skips most slots that cannot
// match.
type keySet struct {
	seed   maphash.Seed
	chunks [][]byte // the arena; only the last chunk has room left
	slots  []uint64 // 0 is empty, else tag<<32 | id+1
	pos    []uint64 // by id: the key's arena position
	n      int      // keys held
	used   int      // arena bytes in use
}

const (
	// chunkBits is the width of a key's offset in its chunk, so chunks
	// hold at most 1 MiB unless one key alone is larger. An arena
	// position is its chunk's index shifted past the offset.
	chunkBits = 20
	minChunk  = 4 << 10
	maxChunk  = 1 << chunkBits
	minSlots  = 256
	// maxIDs bounds the keys a set numbers, so that id+1 fits a slot's
	// low half.
	maxIDs = 1<<32 - 1
)

func newKeySet() *keySet {
	return &keySet{seed: maphash.MakeSeed(), slots: make([]uint64, minSlots)}
}

// hash returns key's hash, which the other methods take.
func (s *keySet) hash(key []byte) uint64 { return maphash.Bytes(s.seed, key) }

// intern inserts key, whose hash is h, copying it, and returns its id and
// whether it was new.
func (s *keySet) intern(h uint64, key []byte) (uint32, bool) {
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	return s.insert(h, key)
}

// insert adds key, whose hash is h, to an index with a free slot, and
// returns its id and whether it was new.
func (s *keySet) insert(h uint64, key []byte) (uint32, bool) {
	i, ok := s.find(h, key)
	if ok {
		return uint32(s.slots[i]) - 1, false
	}
	if s.n == maxIDs {
		panic("explore: more than 2^32-1 distinct keys")
	}
	id := uint32(s.n)
	s.pos = append(s.pos, s.store(key))
	s.slots[i] = h>>32<<32 | uint64(id) + 1
	s.n++
	return id, true
}

// bytes returns the bytes the set holds: its keys with their length
// prefixes, their positions, and its index. It depends only on the keys
// added, not on the order they were added in.
func (s *keySet) bytes() int { return s.used + 8*s.n + 8*len(s.slots) }

// find probes for key, whose hash is h. It returns key's slot and true if
// the set holds key, otherwise the empty slot where key belongs and false.
func (s *keySet) find(h uint64, key []byte) (int, bool) {
	mask := len(s.slots) - 1
	tag := h >> 32
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := s.slots[i]
		if e == 0 {
			return i, false
		}
		if e>>32 == tag && bytes.Equal(s.key(uint32(e)-1), key) {
			return i, true
		}
	}
}

// key returns the key numbered id.
func (s *keySet) key(id uint32) []byte {
	pos := s.pos[id]
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
		i := int(s.hash(s.key(uint32(e)-1))) & mask
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
