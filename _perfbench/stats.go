package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder is the set of percentiles a tail figure may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile for it to mean anything.
const minBeyond = 10

// tail reports the highest percentile of tailLadder that has at least
// minBeyond samples beyond it, with its nearest-rank value and the number
// of samples ranked beyond it. ok is false when even the median has fewer
// than minBeyond samples above it.
func tail(xs []float64) (pct, value float64, beyond int, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // nearest rank; the epsilon absorbs float error
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return p, s[rank-1], n - rank, true
		}
	}
	return 0, 0, 0, false
}

// errorRate is failed operations over attempted ones. attempted counts
// every operation the load generator started; failed counts every one
// that errored, was refused, returned a non-2xx status or failed a
// correctness check.
func errorRate(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// openLoopSample is one request of an open-loop schedule: due is when
// the schedule says it should be sent, sent when the generator actually
// sent it, and done when the response was complete.
type openLoopSample struct {
	due, sent, done time.Time
}

// latency is measured from the due time, so a stall that delays later
// sends is charged to every request it delays.
func (s openLoopSample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how far behind its schedule the generator ran; a large
// value means the figures measure the generator, not the server.
func (s openLoopSample) lateness() time.Duration {
	if d := s.sent.Sub(s.due); d > 0 {
		return d
	}
	return 0
}

// span is one traced interval. Spans of one run share runID; parent is
// the id of the enclosing span (0 for a root).
type span struct {
	id, parent int
	runID      string
	name       string
	start, end time.Time
}

func (s span) duration() time.Duration { return s.end.Sub(s.start) }

// selfTime is the span's duration minus the part of its interval that
// its direct children cover. Overlapping children (concurrent work) are
// counted once.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.duration() - covered
}

// peakRSSMB converts a waited child's resource usage to its peak
// resident set in MiB (Linux reports ru_maxrss in KiB).
func peakRSSMB(ru *syscall.Rusage) float64 {
	if ru == nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
