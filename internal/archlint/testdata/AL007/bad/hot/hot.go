package hot

import "fmt"

// sink is an interface-typed destination: storing a concrete value into it
// boxes the value.
var sink any

// Bad is annotated as a hot path but allocates seven ways: a fmt call, make,
// a non-amortized append, a capturing closure, an implicit interface
// conversion, string concatenation, and a byte-slice conversion.
//
//archlint:hotpath
func Bad(xs []int, n int, name string) string {
	s := fmt.Sprint(n)
	buf := make([]byte, n)
	xs = append(xs, n)
	ys := append(xs, n)
	_ = ys
	f := func() int { return n }
	_ = f
	sink = n
	return s + name + string(buf)
}

// point is a record the path below allocates one at a time.
type point struct{ x, y int }

// BadRecord takes the address of a composite literal: the record allocated
// per call that handing records out of a block exists to avoid.
//
//archlint:hotpath
func BadRecord(n int) *point {
	return &point{x: n}
}
