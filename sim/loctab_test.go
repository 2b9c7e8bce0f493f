package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/history"
)

// TestLocTableConcurrent numbers the same locations from several
// goroutines at once, in different orders, as goroutines running clones of
// one memory may. Every location must get one id, and the
// snapshot's name order must list every id once, sorted by name.
func TestLocTableConcurrent(t *testing.T) {
	var locs []history.Loc
	for i := range 40 {
		locs = append(locs, history.Loc(fmt.Sprintf("v[%d]", (i*17)%40)))
	}
	var tab locTable
	ids := make([][]int, 8)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range locs {
				// Each goroutine walks the names from its own offset.
				ids[g] = append(ids[g], tab.id(locs[(i+5*g)%len(locs)]))
			}
		}()
	}
	wg.Wait()
	s := tab.load()
	if len(s.names) != len(locs) || len(s.byName) != len(locs) {
		t.Fatalf("%d names, %d in name order, want %d", len(s.names), len(s.byName), len(locs))
	}
	for g := range ids {
		for i, id := range ids[g] {
			if want := locs[(i+5*g)%len(locs)]; s.names[id] != want {
				t.Errorf("goroutine %d: id %d names %s, want %s", g, id, s.names[id], want)
			}
		}
	}
	if !slices.IsSortedFunc(s.byName, func(a, b int) int {
		return cmp.Compare(s.names[a], s.names[b])
	}) {
		t.Errorf("ids not in name order: %v", s.byName)
	}
}
