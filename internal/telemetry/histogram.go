package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers int64 nanosecond durations: bucket i holds values v
// with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i; bucket 0 holds v <= 0.
// 64 buckets cover the full int64 range, so Observe never branches on
// overflow.
const numBuckets = 64

// NumBuckets is the exported bucket count, for consumers (the time-series
// roller) that difference raw bucket snapshots across windows.
const NumBuckets = numBuckets

// Histogram is a fixed-bucket latency histogram with power-of-two bucket
// boundaries. Observe is two atomic adds (a bucket and the sum), plus a CAS
// when it sets a new minimum or maximum, and never allocates; the count is
// the buckets' sum, read at snapshot time; percentile estimates are computed at snapshot time by linear
// interpolation within the containing bucket, so they carry the bucket's
// relative error (at most 2x, in practice much less for clustered
// populations). The zero value is ready to use.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // valid only once observed; 0 sentinel = unset
	max    atomic.Int64
}

// Observe records one duration.
//
//archlint:hotpath
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveNs(int64(d))
}

// ObserveNs records one duration given in nanoseconds.
//
//archlint:hotpath
func (h *Histogram) ObserveNs(ns int64) {
	idx := 0
	if ns > 0 {
		idx = bits.Len64(uint64(ns))
	}
	h.counts[idx].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if cur != 0 && cur <= ns {
			break
		}
		// min==0 means "unset" (a true 0 observation lands in bucket 0 and
		// the sentinel stores 0 anyway, the correct minimum).
		if h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= ns {
			break
		}
		if h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	b := h.Buckets()
	return countOf(&b)
}

// countOf is the sum of a bucket snapshot: the observations it counts.
func countOf(counts *[NumBuckets]int64) (n int64) {
	for _, c := range counts {
		n += c
	}
	return n
}

// Sum returns the cumulative sum of observed nanoseconds.
func (h *Histogram) Sum() int64 {
	return h.sum.Load()
}

// Buckets returns a copy of the raw power-of-two bucket counters. The copy
// is one atomic load per bucket — consistent per bucket, not across buckets
// — which is exactly what windowed delta rollups need: differencing two
// snapshots of a monotone counter is safe per bucket.
func (h *Histogram) Buckets() [NumBuckets]int64 {
	var out [NumBuckets]int64
	for i := 0; i < numBuckets; i++ {
		out[i] = h.counts[i].Load()
	}
	return out
}

// BucketQuantile estimates the q-th quantile of a standalone power-of-two
// bucket count array (e.g. a windowed delta of two Buckets snapshots) by
// the same linear interpolation Quantile uses. total must be the sum of
// counts; returns 0 when total <= 0.
func BucketQuantile(counts *[NumBuckets]int64, total int64, q float64) int64 {
	if total <= 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	rank := min(max(int64(math.Ceil(q*float64(total))), 1), total)
	var cum int64
	for i := 0; i < numBuckets; i++ {
		c := counts[i]
		if c <= 0 {
			continue
		}
		if cum+c >= rank {
			if i == 0 {
				return 0
			}
			lower := int64(1) << (i - 1)
			upper := int64(1) << i
			pos := float64(rank-cum) / float64(c)
			return lower + int64(pos*float64(upper-lower))
		}
		cum += c
	}
	return 0
}

// Quantile estimates the q-th quantile (q in [0,1]) in nanoseconds by
// linear interpolation within the containing power-of-two bucket, over one
// snapshot of the buckets. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) int64 {
	b := h.Buckets()
	return BucketQuantile(&b, countOf(&b), q)
}

// HistogramStats is the JSON-marshalable summary of a histogram.
type HistogramStats struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	MinNs int64 `json:"min_ns"`
	MaxNs int64 `json:"max_ns"`
	P50Ns int64 `json:"p50_ns"`
	P95Ns int64 `json:"p95_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// Stats summarizes the histogram with count, sum, min/max, and the p50,
// p95 and p99 estimates, the count and the estimates from one snapshot of
// the buckets.
func (h *Histogram) Stats() HistogramStats {
	b := h.Buckets()
	n := countOf(&b)
	if n == 0 {
		return HistogramStats{}
	}
	return HistogramStats{
		Count: n,
		SumNs: h.sum.Load(),
		MinNs: h.min.Load(),
		MaxNs: h.max.Load(),
		P50Ns: BucketQuantile(&b, n, 0.50),
		P95Ns: BucketQuantile(&b, n, 0.95),
		P99Ns: BucketQuantile(&b, n, 0.99),
	}
}
