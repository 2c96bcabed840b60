package queue

import "repro/internal/replay"

// Queue records from push — the producer side. The right file, but the
// wrong end of the ring: a producer-side append orders records by claim
// attempt, not by delivery, so it must live in the consumer's record hook.
type Queue struct{ rec *replay.QueueLog }

func (q *Queue) push(data []byte) {
	q.rec.Append("src", data)
}
