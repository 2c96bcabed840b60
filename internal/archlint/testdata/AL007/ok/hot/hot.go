package hot

// Queue grows by amortized self-append.
type Queue struct{ items []int }

// Push is a clean hot path: one self-append and arithmetic.
//
//archlint:hotpath
func (q *Queue) Push(n int) int {
	q.items = append(q.items, n)
	return len(q.items)
}

// point is a record its caller owns.
type point struct{ x, y int }

// Fill is a clean hot path too: a composite literal assigned by value fills
// the caller's record and allocates nothing.
//
//archlint:hotpath
func Fill(p *point, n int) {
	*p = point{x: n}
}
