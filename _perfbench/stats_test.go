package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"gpuperf/internal/session"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7}, 5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Error("median reordered its input")
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, to exercise sorting
		}
		return xs
	}
	cases := []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{1000, 99, 990, true}, // rank 990, 10 beyond
		{999, 95, 950, true},  // p99 rank 990 leaves 9
		{40, 75, 30, true},    // p90 rank 36 leaves 4; p75 rank 30 leaves 10
		{20, 50, 10, true},    // only the median qualifies
		{19, 0, 0, false},     // not even the median
		{10000, 99.9, 9990, true},
	}
	for _, c := range cases {
		pct, val, beyond, ok := tail(seq(c.n))
		if ok != c.ok || pct != c.pct || val != c.val {
			t.Errorf("tail(n=%d) = (%v, %v, %v), want (%v, %v, %v)", c.n, pct, val, ok, c.pct, c.val, c.ok)
		}
		if ok {
			above := 0
			for _, x := range seq(c.n) {
				if x > val {
					above++
				}
			}
			if above != beyond || beyond < minBeyond {
				t.Errorf("tail(n=%d): only %d samples beyond p%v", c.n, beyond, pct)
			}
		}
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	// Sent 5 ms late because the generator stalled, answered 2 ms after
	// sending: the user-visible latency is 7 ms, not 2.
	s := openLoopSample{due: ms(0), sent: ms(5), done: ms(7)}
	if s.latency() != 7*time.Millisecond {
		t.Errorf("latency = %v, want 7ms", s.latency())
	}
	if s.lateness() != 5*time.Millisecond {
		t.Errorf("lateness = %v, want 5ms", s.lateness())
	}
	early := openLoopSample{due: ms(10), sent: ms(9), done: ms(12)}
	if early.lateness() != 0 {
		t.Errorf("an early send has lateness %v, want 0", early.lateness())
	}
	if early.latency() != 2*time.Millisecond {
		t.Errorf("latency = %v, want 2ms", early.latency())
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{id: 1, start: at(0), end: at(100)}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"leaf", nil, 100 * time.Millisecond},
		{"disjoint", []span{{start: at(10), end: at(20)}, {start: at(30), end: at(60)}}, 60 * time.Millisecond},
		{"overlapping", []span{{start: at(10), end: at(40)}, {start: at(30), end: at(50)}}, 60 * time.Millisecond},
		{"nested twice", []span{{start: at(10), end: at(50)}, {start: at(20), end: at(30)}}, 60 * time.Millisecond},
		{"clipped", []span{{start: at(-10), end: at(10)}, {start: at(90), end: at(120)}}, 80 * time.Millisecond},
		{"outside", []span{{start: at(200), end: at(300)}}, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTraceSelfTimesNested(t *testing.T) {
	tr := newTracer("run-1")
	root := tr.begin(0, "root")
	child := tr.begin(root, "child")
	grand := tr.begin(child, "grandchild")
	time.Sleep(2 * time.Millisecond)
	tr.end(grand)
	tr.end(child)
	tr.end(root)
	self := tr.selfByName()
	total := tr.spans[0].duration()
	sum := self["root"] + self["child"] + self["grandchild"]
	if sum != total {
		t.Errorf("self times sum to %v, root lasted %v", sum, total)
	}
	for _, s := range tr.spans {
		if s.runID != "run-1" {
			t.Errorf("span %s has run id %q", s.name, s.runID)
		}
	}
}

func TestPeakRSSFromChildRusage(t *testing.T) {
	if peakRSSMB(&syscall.Rusage{Maxrss: 2048}) != 2 {
		t.Error("2048 KiB should read as 2 MiB")
	}
	if peakRSSMB(nil) != 0 {
		t.Error("missing rusage should read as 0")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	if err := cmd.Run(); err != nil {
		t.Fatal(err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if mb := peakRSSMB(ru); mb < 1 || mb > 4096 {
		t.Errorf("child peak RSS %v MiB is implausible", mb)
	}
}

func TestErrorRate(t *testing.T) {
	if errorRate(0, 0) != 0 {
		t.Error("no attempts should read as 0")
	}
	if errorRate(1, 4) != 0.25 {
		t.Error("1 of 4 should read as 0.25")
	}
	// A transport error and a failed correctness check both count; a
	// correct operation counts only in the denominator.
	var c tally
	c.attempt(nil)
	c.attempt(errors.New("connection refused"))
	c.attempt(checkFleet(childResult{Progress: session.Progress{Planned: 4, Done: 4, Quarantined: 1}}, false))
	c.attempt(checkFleet(childResult{Progress: session.Progress{Planned: 4, Done: 4}}, false))
	if c.attempted != 4 || c.failed != 2 {
		t.Errorf("tally = %d failed of %d, want 2 of 4", c.failed, c.attempted)
	}
	if c.rate() != 0.5 {
		t.Errorf("rate = %v, want 0.5", c.rate())
	}
}
