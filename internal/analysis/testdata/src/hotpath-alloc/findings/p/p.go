// Package p exercises every allocation-site class hotpath-alloc proves
// absent from //mpclint:hotpath functions: intrinsic sites, boxing,
// unprovable callees, and transitive chains through module helpers.
package p

import (
	"slices"
	"sort"
	"strings"
	"sync"
)

type pair struct{ a, b int }

type boxer interface{}

type writer interface {
	Write(p []byte) (int, error)
}

// sum is variadic: calling it without a spread builds the argument
// slice.
func sum(xs ...int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// sink boxes its concrete arguments into an interface parameter.
func sink(v boxer) boxer { return v }

// leaf allocates; mid is locally clean but calls it, so a hot path
// calling mid inherits the allocation transitively.
func leaf(n int) []int {
	return make([]int, n)
}

func mid(n int) []int {
	return leaf(n)
}

// spin is allocation-free; only the go statement launching it is a
// site.
func spin() {}

//mpclint:hotpath exercised under a findings-fixture pin
func Intrinsics(n int, m map[string]int, s string) int {
	buf := make([]float64, n) // want `make allocates in //mpclint:hotpath function p\.Intrinsics; the zero-alloc pin forbids allocation sites`
	pr := new(pair)           // want `new allocates in //mpclint:hotpath function p\.Intrinsics`
	xs := []int{1, 2, 3}      // want `slice literal allocates its backing array`
	xs = append(xs, n)        // want `append may grow its backing array`
	q := &pair{a: n}          // want `composite literal escapes to the heap \(&T\{\.\.\.\}\)`
	m[s] = n                  // want `map assignment may grow the map`
	s2 := s + "!"             // want `string concatenation allocates`
	_ = len(buf) + pr.a + q.a + len(s2) + len(xs)
	return sum(1, 2, 3) // want `variadic call allocates its argument slice`
}

//mpclint:hotpath exercised under a findings-fixture pin
func Spawn(n int) int {
	f := func() int { return n } // want `closure captures variables and allocates`
	go spin()                    // want `go statement spawns a goroutine`
	return f()                   // want `dynamic call through a function value cannot be proven allocation-free`
}

//mpclint:hotpath exercised under a findings-fixture pin
func Boxes(n int, w writer, b []byte, s string) int {
	_ = boxer(n)                         // want `conversion boxes a non-pointer value into an interface`
	_ = sink(pair{a: n})                 // want `argument boxed into interface parameter`
	_ = []byte(s)                        // want `string-to-slice conversion allocates`
	_ = string(b)                        // want `slice-to-string conversion allocates`
	k, _ := w.Write(b)                   // want `interface call p\.writer\.Write dispatches dynamically and cannot be proven allocation-free`
	return k + len(strings.TrimSpace(s)) // want `call to strings\.TrimSpace is outside the module and not on the allocation-free allowlist`
}

//mpclint:hotpath exercised under a findings-fixture pin
func Transitive(n int) int {
	return len(mid(n)) // want `call may allocate in //mpclint:hotpath function p\.Transitive: p\.Transitive → p\.mid → p\.leaf \(make allocates at p\.go:\d+\); the zero-alloc pin extends to everything the hot path calls`
}

// Sorts shows the ways a stable sort allocates or goes unproven:
// sort.SliceStable boxes its slice and builds a reflect swapper (it is
// off the allowlist), and slices.SortStableFunc, though allowlisted,
// calls its comparator — a capturing literal is a closure, a named
// module function is followed to its allocation, and a function
// parameter cannot be proven at all.
//
//mpclint:hotpath exercised under a findings-fixture pin
func Sorts(xs []int, desc bool, by func(a, b int) int) {
	sort.SliceStable(xs, func(a, b int) bool { return xs[a] < xs[b] }) // want `call to sort\.SliceStable is outside the module and not on the allocation-free allowlist` `argument boxed into interface parameter` `closure captures variables and allocates`
	slices.SortStableFunc(xs, func(a, b int) int {                     // want `closure captures variables and allocates`
		if desc {
			return b - a
		}
		return a - b
	})
	slices.SortStableFunc(xs, byLen) // want `call may allocate in //mpclint:hotpath function p\.Sorts: p\.Sorts → p\.byLen → p\.leaf \(make allocates at p\.go:\d+\)`
	slices.SortStableFunc(xs, by)    // want `function value passed to an allowlisted call cannot be proven allocation-free`
}

// byLen compares through an allocating helper.
func byLen(a, b int) int {
	return len(leaf(a)) - len(leaf(b))
}

// Pooled takes a buffer from a sync.Pool and returns it. Neither call
// is on the allowlist: Get calls the pool's New when the pool is empty,
// and the race detector drops a share of Puts, so a pooled hot path
// allocates in ways the proof cannot see.
//
//mpclint:hotpath exercised under a findings-fixture pin
func Pooled(pool *sync.Pool) float64 {
	v, _ := pool.Get().(*[16]float64) // want `call to \(\*sync\.Pool\)\.Get is outside the module and not on the allocation-free allowlist`
	if v == nil {
		panic("p: empty pool")
	}
	x := v[0]
	pool.Put(v) // want `call to \(\*sync\.Pool\)\.Put is outside the module and not on the allocation-free allowlist`
	return x
}
