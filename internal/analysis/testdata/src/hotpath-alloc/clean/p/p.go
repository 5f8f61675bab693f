// Package p shows the forms a //mpclint:hotpath function may use:
// stack values, allowlisted stdlib calls, clean module helpers, other
// annotated functions, and panic messages (the failure path may
// allocate).
package p

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

type state struct {
	mu   sync.Mutex
	hits atomic.Uint64
}

// scale is a clean module helper: hot paths may call it freely because
// the proof follows static calls into the module.
func scale(x float64) float64 {
	return math.Sqrt(x) * 2
}

// NewState is not annotated, so it allocates freely.
func NewState() *state {
	return &state{}
}

//mpclint:hotpath proven by the fixture's AllocsPerRun pin
func Inner(s *state, x float64) float64 {
	var buf [8]float64 // an array value lives on the stack
	for i := range buf {
		buf[i] = scale(x)
	}
	s.hits.Add(1)
	return buf[0]
}

// Outer calls another annotated function: trusted, since Inner is
// proven under its own annotation. The panic argument subtree is
// exempt — the failure path is allowed to build its message.
//
//mpclint:hotpath proven by the fixture's AllocsPerRun pin
func Outer(s *state, x float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if x < 0 {
		panic(fmt.Sprintf("p: negative input %v", x))
	}
	return Inner(s, x)
}

// Sorted stable-sorts a caller's array in place: slices.SortStableFunc
// is on the allowlist, and its comparator is proven as a call at the
// argument — a literal that captures nothing is walked in place, and a
// named module function is followed like a static call.
//
//mpclint:hotpath proven by the fixture's AllocsPerRun pin
func Sorted(buf *[8]float64) float64 {
	slices.SortStableFunc(buf[:], func(a, b float64) int {
		switch {
		case a < b:
			return -1
		case b < a:
			return 1
		}
		return 0
	})
	slices.SortStableFunc(buf[:], descending)
	return buf[0]
}

// descending is a clean module comparator.
func descending(a, b float64) int {
	switch {
	case a > b:
		return -1
	case b > a:
		return 1
	}
	return 0
}
