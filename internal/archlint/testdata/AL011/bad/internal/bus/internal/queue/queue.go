package queue

// Endpoint names one interface of one instance.
type Endpoint struct{ Instance, Interface string }

// Queue is a per-interface message queue.
type Queue struct{ n int }

// Len returns the number of queued messages.
func (q *Queue) Len() int { return q.n }
