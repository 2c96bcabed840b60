package bus

import "repro/internal/replay"

// Record appends from a transport file of the bus: only the queue
// package's consumer hook records.
func Record(q *replay.QueueLog, data []byte) {
	q.Append("attach", data)
}
