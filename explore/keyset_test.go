package explore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestKeySetMatchesMap drives a keySet and a map with the same random
// keys, many of them repeated, of lengths from empty to past the largest
// arena chunk, so the index grows several times and keys land at chunk
// boundaries and in a chunk of their own. Every add must report what the
// map reports, every key must stay a member under the id it was given,
// and the size must count every key, its length prefix, its position and
// the index.
func TestKeySetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, want := newKeySet(), map[string]bool{}
	keys := make([][]byte, 3000)
	for i := range keys {
		n := rng.Intn(300)
		switch i {
		case 1000:
			n = maxChunk + 10 // a key larger than any chunk
		case 1001:
			n = 0
		}
		keys[i] = make([]byte, n)
		rng.Read(keys[i])
		if n > 0 {
			keys[i][0] = byte(i % 7) // one-byte keys repeat
		}
	}
	used := 0
	ids := map[string]uint32{}
	for i := 0; i < 20000; i++ {
		k := keys[rng.Intn(len(keys))]
		if i < len(keys) {
			k = keys[i]
		}
		_, added := s.intern(s.hash(k), k)
		if added == want[string(k)] {
			t.Fatalf("add %d (%d bytes) reported %v, map holds it: %v", i, len(k), added, want[string(k)])
		}
		if added {
			used += uvarintLen(len(k)) + len(k)
			ids[string(k)] = uint32(len(ids))
		}
		want[string(k)] = true
	}
	for k := range want {
		slot, ok := s.find(s.hash([]byte(k)), []byte(k))
		if !ok {
			t.Fatalf("lost a key of %d bytes", len(k))
		}
		if id := uint32(s.slots[slot]) - 1; id != ids[k] || string(s.key(id)) != k {
			t.Fatalf("a key of %d bytes has id %d, want %d", len(k), id, ids[k])
		}
	}
	if _, ok := s.find(s.hash([]byte("absent")), []byte("absent")); ok {
		t.Error("holds a key never added")
	}
	if s.n != len(want) || s.bytes() != used+8*s.n+8*len(s.slots) || 4*s.n > 3*len(s.slots) {
		t.Errorf("%d keys in %d slots, %d bytes; want %d keys, %d arena bytes", s.n, len(s.slots), s.bytes(), len(want), used)
	}
}

// TestKeySetComparesWholeKeys gives every key the same hash, so all of them
// share one tag and one probe sequence: membership must then rest on the
// full key bytes alone.
func TestKeySetComparesWholeKeys(t *testing.T) {
	s := newKeySet()
	s.slots = make([]uint64, 1024)
	const h = 0xdeadbeef
	for i := range 500 {
		if id, added := s.insert(h, []byte(fmt.Sprint("key", i))); !added || id != uint32(i) {
			t.Fatalf("key %d reported present, or numbered %d", i, id)
		}
	}
	for i := range 1000 {
		_, ok := s.find(h, []byte(fmt.Sprint("key", i)))
		if ok != (i < 500) {
			t.Errorf("key %d: member %v, want %v", i, ok, i < 500)
		}
	}
	if id, added := s.insert(h, []byte("key7")); added || id != 7 {
		t.Errorf("a held key was added again, or under id %d, not 7", id)
	}
}

// TestStateSetMatchesMap drives a stateSet and a map with the same random
// tuples, many of them repeated, so the index grows several times, each
// time re-placing its slots by their tags alone. Every add must report
// what the map reports, every tuple must stay a member under the number
// it was given, in the order it was added, and the size must count every
// tuple and the index.
func TestStateSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const width = 3
	s := stateSet{width: width, slots: make([]uint64, minSlots)}
	ids := map[[width]uint32]uint32{}
	grows := 0
	for i := 0; i < 40000; i++ {
		var k [width]uint32
		for j := range k {
			k[j] = uint32(rng.Intn(40))
		}
		slots := len(s.slots)
		id, added := s.add(k[:])
		if len(s.slots) != slots {
			grows++
		}
		want, held := ids[k]
		if added == held || (held && id != want) {
			t.Fatalf("add %d of %v: number %d, added %v; map holds it under %d: %v", i, k, id, added, want, held)
		}
		if added {
			if id != uint32(len(ids)) {
				t.Fatalf("add %d of %v: numbered %d, want %d", i, k, id, len(ids))
			}
			ids[k] = id
		}
	}
	for k, id := range ids {
		slot, ok := s.find(hashTuple(k[:]), k[:])
		if !ok || uint32(s.slots[slot])-1 != id || !slices.Equal(s.tuple(id), k[:]) {
			t.Fatalf("%v: member %v, or not under number %d", k, ok, id)
		}
	}
	absent := []uint32{40, 0, 0}
	if _, ok := s.find(hashTuple(absent), absent); ok {
		t.Error("holds a tuple never added")
	}
	t.Logf("%d tuples, %d slots, %d grows", s.len(), len(s.slots), grows)
	if grows < 5 || s.len() != len(ids) || s.bytes() != 4*width*len(ids)+8*len(s.slots) || 4*s.len() > 3*len(s.slots) {
		t.Errorf("%d tuples in %d slots after %d grows, %d bytes; want %d tuples", s.len(), len(s.slots), grows, s.bytes(), len(ids))
	}
}
