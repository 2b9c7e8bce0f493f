package perm

import (
	"fmt"
	"testing"
)

// countLinearExtensions returns the number of linear extensions.
func countLinearExtensions(n int, before func(a, b int) bool) int {
	count := 0
	LinearExtensions(n, before, func([]int) bool { count++; return true })
	return count
}

func noOrder(a, b int) bool { return false }

func TestLinearExtensionsUnconstrained(t *testing.T) {
	// n! permutations when unconstrained.
	want := []int{1, 1, 2, 6, 24, 120}
	for n, w := range want {
		if got := countLinearExtensions(n, noOrder); got != w {
			t.Errorf("n=%d: %d extensions, want %d", n, got, w)
		}
	}
}

func TestLinearExtensionsChain(t *testing.T) {
	// A total order has exactly one extension.
	got := 0
	LinearExtensions(4, func(a, b int) bool { return a < b }, func(o []int) bool {
		got++
		for i, x := range o {
			if x != i {
				t.Errorf("extension %v is not the chain", o)
			}
		}
		return true
	})
	if got != 1 {
		t.Errorf("chain has %d extensions, want 1", got)
	}
}

func TestLinearExtensionsRespectOrder(t *testing.T) {
	// 0<2 and 1<2: item 2 always last; 2 extensions.
	before := func(a, b int) bool { return b == 2 && a != 2 }
	n := 0
	LinearExtensions(3, before, func(o []int) bool {
		if o[2] != 2 {
			t.Errorf("extension %v places 2 early", o)
		}
		n++
		return true
	})
	if n != 2 {
		t.Errorf("%d extensions, want 2", n)
	}
}

func TestLinearExtensionsCycleYieldsNothing(t *testing.T) {
	before := func(a, b int) bool { return (a+1)%3 == b } // 0<1<2<0
	if countLinearExtensions(3, before) != 0 {
		t.Error("cyclic order yielded extensions")
	}
}

func TestLinearExtensionsEarlyStop(t *testing.T) {
	seen := 0
	done := LinearExtensions(3, noOrder, func([]int) bool {
		seen++
		return seen < 2
	})
	if done || seen != 2 {
		t.Errorf("early stop: done=%v seen=%d", done, seen)
	}
}

func TestLinearExtensionsDistinct(t *testing.T) {
	seen := map[string]bool{}
	LinearExtensions(4, noOrder, func(o []int) bool {
		k := fmt.Sprint(o)
		if seen[k] {
			t.Errorf("duplicate extension %v", o)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 24 {
		t.Errorf("%d distinct extensions, want 24", len(seen))
	}
}

func TestLinearExtensionsPanicsOver64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n > 64")
		}
	}()
	LinearExtensions(65, noOrder, func([]int) bool { return true })
}

func TestProducts(t *testing.T) {
	var got [][]int
	Products([]int{2, 3}, func(idx []int) bool {
		cp := make([]int, len(idx))
		copy(cp, idx)
		got = append(got, cp)
		return true
	})
	if len(got) != 6 {
		t.Fatalf("%d products, want 6", len(got))
	}
	if got[0][0] != 0 || got[0][1] != 0 || got[5][0] != 1 || got[5][1] != 2 {
		t.Errorf("products = %v", got)
	}
}

func TestProductsEmpty(t *testing.T) {
	n := 0
	Products(nil, func(idx []int) bool {
		if len(idx) != 0 {
			t.Errorf("idx = %v", idx)
		}
		n++
		return true
	})
	if n != 1 {
		t.Errorf("empty product yielded %d vectors, want 1", n)
	}
}

func TestProductsZeroSize(t *testing.T) {
	n := 0
	Products([]int{2, 0, 3}, func([]int) bool { n++; return true })
	if n != 0 {
		t.Errorf("product with a zero dimension yielded %d vectors", n)
	}
}

func TestProductsEarlyStop(t *testing.T) {
	n := 0
	done := Products([]int{10, 10}, func([]int) bool { n++; return n < 5 })
	if done || n != 5 {
		t.Errorf("early stop: done=%v n=%d", done, n)
	}
}
