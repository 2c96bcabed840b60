package queue

import "repro/internal/replay"

// Queue owns delivery; record is the consumer-drain hook, called as a
// message leaves the ring. Slot-claim order is delivery order there, which
// is what makes the recorded per-queue sequence the true total order.
type Queue struct{ rec *replay.QueueLog }

type qitem struct{ data []byte }

func (q *Queue) record(it qitem) {
	q.rec.Append("src", it.data)
}

func (q *Queue) Pop() qitem {
	it := qitem{data: []byte("m")}
	q.record(it)
	return it
}
