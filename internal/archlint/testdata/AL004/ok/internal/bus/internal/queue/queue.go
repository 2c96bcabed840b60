package queue

import "sync"

// Queue is a message queue whose Pop parks its caller until a message is
// queued.
type Queue struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

// Pop blocks until a message is queued.
func (q *Queue) Pop() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		q.cond.Wait()
	}
	q.n--
	return q.n
}
