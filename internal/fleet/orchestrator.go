package fleet

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/clock"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/obs"
	"gpuperf/internal/validity"
	"gpuperf/internal/workloads"
)

// The orchestrator partitions the fleet across shards (device i belongs
// to shard i mod shards), runs each shard as one streaming sweep
// pipeline over its devices — generated on demand in small batches, so
// peak heap is bounded by (shards × batch), independent of fleet size —
// and folds every shard's rows into a per-shard Aggregate. After the
// shards finish, the aggregates merge associatively and Finalize renders
// the report. Because per-cell measurements are a pure function of
// (seed, device, benchmark, pair) and the folds are exact integer
// arithmetic, the report is byte-identical at a fixed seed for ANY shard
// count — the property the fleet-smoke CI job cmp's.

// Options configures a fleet campaign run.
type Options struct {
	Seed int64
	// Size is the fleet's device count (≥ 1).
	Size int
	// Shards partitions devices across concurrent shard pipelines; < 1
	// means 1 and values above Size clamp to Size. The report does not
	// depend on it.
	Shards int
	// Workers is the fleet-wide worker budget, split across shards
	// (each shard sweeps with max(1, Workers/Shards) workers).
	Workers int
	// Jitter is the per-device parameter spread.
	Jitter JitterProfile
	// BaseBoards seeds the round-robin population (empty: all four paper
	// boards).
	BaseBoards []string
	// Benches is the benchmark set swept on every device.
	Benches []*workloads.Benchmark
	// Checkpoint, when non-empty, is the base path for per-shard
	// journals (<Checkpoint>.shard<N>) with merged-journal resume.
	Checkpoint string
	// Res carries the fault campaign and retry policy, shared by every
	// shard. nil runs fault-free.
	Res *fault.Resilience
	// FaultProfile is the canonical fault-profile spec bound into the
	// fleet cohort (empty for fault-free).
	FaultProfile string
	// Obs, when non-nil, receives instrumentation. Note the per-device
	// track cost: prefer nil (or a disabled recorder) for very large
	// fleets.
	Obs *obs.Recorder
	// TrackPrefix namespaces obs track names; empty means "fleet".
	TrackPrefix string
	// CodeVersion stamps the cohort (empty: resolved from build info).
	CodeVersion string
	// Tracker, when non-nil, receives per-shard progress; it must have
	// been built with NewTracker(ClampShards(Shards, Size)). nil gets a
	// private tracker.
	Tracker *Tracker
	// OnCell, when non-nil, observes every resolved cell with its shard
	// index. Called from every shard's workers; must be safe for
	// concurrent use.
	OnCell func(shard int, row characterize.Row)
	// Warn receives human-readable salvage notes from the journal merge.
	// nil logs to stderr.
	Warn func(format string, args ...any)
}

// ClampShards is the orchestrator's shard-count normalization: at least
// 1, at most size. Exported so callers sizing a Tracker agree with Run.
func ClampShards(shards, size int) int {
	if shards < 1 {
		shards = 1
	}
	if shards > size && size > 0 {
		shards = size
	}
	return shards
}

// CohortProfile builds the profile string binding a fleet campaign's
// journals: the canonical fault profile plus the fleet geometry. The
// shard count is deliberately absent — journals from any shard layout of
// the same campaign share a cohort, which is what makes resharded
// resume legal.
func CohortProfile(faultProfile string, size int, jitter JitterProfile) string {
	return faultProfile + "+fleet[n=" + strconv.Itoa(size) + "," + jitter.String() + "]"
}

// Cohort is the fleet campaign's identity, shared by every shard
// journal.
func (o *Options) Cohort() validity.Cohort {
	cv := o.CodeVersion
	if cv == "" {
		cv = validity.ResolveCodeVersion()
	}
	return validity.Cohort{
		Seed:        o.Seed,
		Boards:      o.BaseBoards,
		Profile:     CohortProfile(o.FaultProfile, o.Size, o.Jitter),
		CodeVersion: cv,
	}
}

func (o *Options) warn(format string, args ...any) {
	if o.Warn != nil {
		o.Warn(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, "fleet: "+format+"\n", args...)
}

// Run executes the fleet campaign and returns the finalized report.
// Cancelling ctx stops every shard at a sweep-cell boundary with its
// journal resumable; the error wraps the cause.
func Run(ctx context.Context, opts Options) (*Report, error) {
	fl, err := New(opts.Seed, opts.BaseBoards, opts.Size, opts.Jitter)
	if err != nil {
		return nil, err
	}
	opts.BaseBoards = fl.BaseNames()
	shards := ClampShards(opts.Shards, opts.Size)

	res := opts.Res
	if res == nil {
		res = &fault.Resilience{}
	}
	if opts.Obs != nil && res.Obs == nil {
		res.Obs = opts.Obs
	}
	// Observe must run before any shard pool starts; every SweepStream
	// below then finds the policy already wired and never races.
	res.Observe()

	tracker := opts.Tracker
	if tracker == nil || tracker.Shards() != shards {
		tracker = NewTracker(shards)
	}
	planShards(tracker, fl, shards, len(opts.Benches))

	// One shared timing model per base board: jitter touches power fields
	// only, so every device of a board launches with the same timing and
	// boots do the power half alone.
	models := make([]*driver.BoardModel, len(fl.bases))
	for i, base := range fl.bases {
		if models[i], err = driver.NewBoardModel(base); err != nil {
			return nil, err
		}
	}

	journals, err := openShardJournals(&opts, fl, shards)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, j := range journals {
			if j != nil {
				_ = j.Close()
			}
		}
	}()

	shardWorkers := opts.Workers / shards
	if shardWorkers < 1 {
		shardWorkers = 1
	}
	aggs := make([]*Aggregate, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		var j *characterize.Journal
		if journals != nil {
			j = journals[s]
		}
		wg.Add(1)
		go func(s int, j *characterize.Journal) {
			defer wg.Done()
			aggs[s], errs[s] = runShard(ctx, s, shards, shardWorkers, fl, models, j, res, tracker, &opts)
		}(s, j)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", s, err)
		}
	}

	merged := NewAggregate()
	for _, a := range aggs {
		merged.Merge(a)
	}
	return merged.Finalize(opts.Seed, opts.Size, opts.BaseBoards, opts.Jitter), nil
}

// planShards charges each shard's planned device and cell counts before
// any work starts. Cell counts derive from the base boards' pair grids
// (jitter never touches the ValidPairs matrix).
func planShards(t *Tracker, fl *Fleet, shards, nBenches int) {
	pairsPerBase := make([]int64, len(fl.bases))
	for i, base := range fl.bases {
		pairsPerBase[i] = int64(len(clock.ValidPairs(base)))
	}
	for i := 0; i < fl.size; i++ {
		c := &t.shards[i%shards]
		c.devicesPlanned.Add(1)
		c.cellsPlanned.Add(pairsPerBase[i%len(fl.bases)] * int64(nBenches))
	}
}

// openShardJournals merges any existing shard journals (one decode per
// file) and writes one journal per shard under the fleet cohort, each
// holding its own file's cells plus the cells other files hold for the
// devices it owns under the current layout. Returns nil when the
// campaign runs without a checkpoint.
func openShardJournals(opts *Options, fl *Fleet, shards int) ([]*characterize.Journal, error) {
	if opts.Checkpoint == "" {
		return nil, nil
	}
	cohort := opts.Cohort()
	journals, err := mergeShardJournals(opts.Checkpoint, shards, opts.Workers, cohort, shardOwner(fl, shards), opts.warn)
	if err != nil {
		return nil, err
	}
	errs := make([]error, shards)
	cfg := characterize.JournalConfig{Cohort: cohort, Warn: opts.Warn}
	forEachBounded(shards, opts.Workers, func(s int) {
		errs[s] = journals[s].Create(ShardPath(opts.Checkpoint, s), cfg)
	})
	for _, err := range errs {
		if err != nil {
			for _, j := range journals {
				_ = j.Close()
			}
			return nil, err
		}
	}
	return journals, nil
}

// shardSink adapts one shard's row stream onto its Aggregate and the
// tracker. Device completion is counted when every benchmark of a device
// has streamed its BenchResult.
type shardSink struct {
	agg    *Aggregate
	tr     *Tracker
	shard  int
	nBench int
	onCell func(int, characterize.Row)

	mu        sync.Mutex
	benchDone map[string]int
}

func (s *shardSink) ConsumeRow(r characterize.Row) {
	s.agg.ConsumeRow(r)
	c := &s.tr.shards[s.shard]
	c.cellsDone.Add(1)
	c.rowsFolded.Add(1)
	if r.Replayed {
		c.replayed.Add(1)
	}
	if r.Result.Quarantined {
		c.quarantined.Add(1)
	}
	if s.onCell != nil {
		s.onCell(s.shard, r)
	}
}

func (s *shardSink) ConsumeBench(b *characterize.BenchResult) {
	s.agg.ConsumeBench(b)
	s.mu.Lock()
	s.benchDone[b.Board]++
	done := s.benchDone[b.Board] == s.nBench
	if done {
		delete(s.benchDone, b.Board)
	}
	s.mu.Unlock()
	if done {
		s.tr.shards[s.shard].devicesDone.Add(1)
	}
}

// runShard sweeps every device the shard owns (ascending index, batched
// so at most one batch of generated specs is live) and folds the stream
// into the shard's Aggregate. Devices boot from their base board's model
// (models is aligned with fl.bases).
func runShard(ctx context.Context, shard, shards, workers int, fl *Fleet, models []*driver.BoardModel, journal *characterize.Journal, res *fault.Resilience, tracker *Tracker, opts *Options) (*Aggregate, error) {
	agg := NewAggregate()
	sink := &shardSink{
		agg: agg, tr: tracker, shard: shard,
		nBench: len(opts.Benches), onCell: opts.OnCell,
		benchDone: make(map[string]int),
	}
	prefix := opts.TrackPrefix
	if prefix == "" {
		prefix = "fleet"
	}
	// batchSize bounds live device specs per shard: enough to keep the
	// shard's workers busy across devices, small enough that fleet memory
	// stays flat in the fleet size.
	batchSize := 4 * workers
	if batchSize < 16 {
		batchSize = 16
	}
	owned := make([]int, 0, batchSize)
	for start := shard; start < fl.size; {
		owned = owned[:0]
		for i := start; i < fl.size && len(owned) < batchSize; i += shards {
			owned = append(owned, i)
		}
		if len(owned) == 0 {
			break
		}
		start = owned[len(owned)-1] + shards

		devs := make(map[string]Device, len(owned))
		names := make([]string, len(owned))
		for bi, i := range owned {
			d := fl.Device(i)
			devs[d.Name] = d
			names[bi] = d.Name
		}
		swOpts := characterize.SweepOptions{
			Seed:        opts.Seed,
			Workers:     workers,
			Res:         res,
			Journal:     journal,
			Obs:         opts.Obs,
			TrackPrefix: prefix,
			Sink:        sink,
			Boot: func(name string, in *fault.Injector) (*driver.Device, error) {
				d, ok := devs[name]
				if !ok {
					return nil, fmt.Errorf("fleet: unknown device %q", name)
				}
				model := models[d.Index%len(models)]
				dev, err := model.OpenWithFaults(d.Spec, in) //gpulint:ignore faultsafety -- boot seam: the error returns into characterize's resilient loop, which classifies with fault.PointOf and retries
				if err != nil {
					return nil, err
				}
				dev.Meter().Gain = d.MeterGain
				return dev, nil
			},
			SpecOf: func(name string) *arch.Spec {
				if d, ok := devs[name]; ok {
					return d.Spec
				}
				return nil
			},
		}
		if err := characterize.SweepStream(ctx, names, opts.Benches, swOpts); err != nil {
			return agg, err
		}
	}
	return agg, nil
}
