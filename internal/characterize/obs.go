package characterize

import (
	"strconv"

	"gpuperf/internal/clock"
	"gpuperf/internal/obs"
)

// sweepObs bundles one sweep job's metric handles; nil (the default) means
// the sweep is unobserved and instrumented paths pay a pointer check.
type sweepObs struct {
	cells       *obs.Counter
	quarantined *obs.CounterVec
	journalHits *obs.Counter
	simUS       *obs.Counter
}

// newSweepObs registers the per-board sweep metrics.
func newSweepObs(rec *obs.Recorder, board string) *sweepObs {
	if rec == nil {
		return nil
	}
	reg := rec.Metrics()
	bl := obs.L("board", board)
	// Zero base series so the quarantine family shows up (at 0) in clean
	// campaigns too.
	reg.Counter("characterize_cells_quarantined_total", "cells quarantined, by blamed fault point", bl)
	return &sweepObs{
		cells:       reg.Counter("characterize_cells_total", "sweep cells measured", bl),
		quarantined: reg.CounterVec("characterize_cells_quarantined_total", "cells quarantined, by blamed fault point", "point", bl),
		journalHits: reg.Counter("characterize_journal_hits_total", "cells replayed from the checkpoint journal", bl),
		simUS:       reg.Counter("characterize_sim_microseconds_total", "virtual sweep time accumulated", bl),
	}
}

// replayed records one cell answered from the checkpoint journal.
func (so *sweepObs) replayed(track *obs.Track, p clock.Pair) {
	if so == nil {
		return
	}
	so.journalHits.Inc()
	track.Instant("journal replay", obs.Arg{Key: "pair", Value: p.String()})
}

// observePool records the sweep pool width gauge.
func observePool(rec *obs.Recorder, workers int) {
	if rec == nil {
		return
	}
	rec.Metrics().Gauge("characterize_pool_workers", "sweep worker pool width").Set(int64(workers))
}

// trackName names one sweep job's virtual timeline. The prefix groups a
// campaign phase's tracks together in the sorted export layout; later
// repetitions get their own track namespace while repetition 0 keeps the
// single-run names, so single-run trace goldens are unaffected.
func (o *SweepOptions) trackName(board, bench string) string {
	prefix := o.TrackPrefix
	if prefix == "" {
		prefix = "sweep"
	}
	if o.Rep > 0 {
		prefix = "rep" + strconv.Itoa(o.Rep) + "/" + prefix
	}
	return prefix + "/" + board + "/" + bench
}
