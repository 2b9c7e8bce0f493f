package explore

import (
	"fmt"
	"math/rand"
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
	has := func(k []byte) bool {
		_, ok := s.lookup(s.hash(k), k)
		return ok
	}
	for k := range want {
		if !has([]byte(k)) {
			t.Fatalf("lost a key of %d bytes", len(k))
		}
		if id, ok := s.lookup(s.hash([]byte(k)), []byte(k)); !ok || id != ids[k] || string(s.key(id)) != k {
			t.Fatalf("a key of %d bytes has id %d (%v), want %d", len(k), id, ok, ids[k])
		}
	}
	if has([]byte("absent")) {
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
