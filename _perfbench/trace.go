package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/clock"
	"gpuperf/internal/core"
	"gpuperf/internal/counters"
	"gpuperf/internal/daemon"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/fleet"
	"gpuperf/internal/gpu"
	"gpuperf/internal/meter"
	"gpuperf/internal/obs"
	"gpuperf/internal/report"
	"gpuperf/internal/reproduce"
	"gpuperf/internal/session"
	"gpuperf/internal/workloads"
)

// The traced run records spans in memory around every call it makes into
// a layer's public entry point, attaches obs.Recorders for exact counts,
// and derives the per-layer metrics from both. It walks all four
// workload paths whatever --workload names, so every per-layer metric is
// measured on every traced run. Each path runs in its own fresh child
// process at workers 1, so process-wide caches and pools start cold as
// in the timed runs, and allocation and time attribute to one span.
// --workload picks the unit that also runs untraced, for
// trace.overhead_pct and the Go runtime figures. The spans of all
// children are merged under one run id and written to
// .bench_build/trace-<workload>-seed<n>.jsonl when the run ends.

// tracePaths are the traced steps, one child process each. fleet-resume
// resumes from the journals fleet leaves in the shared directory.
var tracePaths = []string{"paper", "paper-layers", "devices", "fleet", "fleet-resume", "serve"}

// traceOut is what a trace child reports back.
type traceOut struct {
	Metrics   []layerMetric `json:"metrics"`
	Spans     []spanJSON    `json:"spans"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Notes     []string      `json:"notes,omitempty"`
}

// layerMetric is one per-layer figure and the end-to-end metrics it
// should move.
type layerMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Moves string  `json:"moves"`
}

type spanJSON struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	runID string
	mu    sync.Mutex
	spans []span
}

func newTracer(runID string) *tracer { return &tracer{runID: runID} }

// begin opens a span under parent (0: a root) and returns its id.
func (t *tracer) begin(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, runID: t.runID, name: name, start: time.Now()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// do runs f inside a span named name under parent.
func (t *tracer) do(parent int, name string, f func() error) error {
	id := t.begin(parent, name)
	defer t.end(id)
	return f()
}

// selfByName sums the self time of every span, by span name.
func (t *tracer) selfByName() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.parent] = append(children[s.parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.name] += selfTime(s, children[s.id])
	}
	return out
}

// durations lists the durations of every span named name, in seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.duration().Seconds())
		}
	}
	return out
}

// export lists the spans for another process.
func (t *tracer) export() []spanJSON {
	out := make([]spanJSON, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanJSON{s.id, s.parent, s.name, s.start.UnixNano(), s.end.UnixNano()}
	}
	return out
}

// adopt appends a child process's spans, renumbered after the spans
// already held, with its roots placed under parent.
func (t *tracer) adopt(parent int, spans []spanJSON) {
	t.mu.Lock()
	defer t.mu.Unlock()
	offset := len(t.spans)
	for _, s := range spans {
		p := parent
		if s.Parent != 0 {
			p = s.Parent + offset
		}
		t.spans = append(t.spans, span{id: s.ID + offset, parent: p, runID: t.runID, name: s.Name,
			start: time.Unix(0, s.Start), end: time.Unix(0, s.End)})
	}
}

// write saves the spans as JSON lines, one object per span.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		rec := struct {
			Run string `json:"run"`
			spanJSON
		}{s.runID, spanJSON{s.id, s.parent, s.name, s.start.UnixNano(), s.end.UnixNano()}}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// traceRun is one traced step in a trace child.
type traceRun struct {
	tr   *tracer
	ctx  context.Context
	seed int64
	dir  string // shared with the other steps of the run
	ops  tally
	out  []layerMetric
}

func (r *traceRun) put(name string, value float64, unit, moves string) {
	r.out = append(r.out, layerMetric{name, unit, value, moves})
}

func total(reg *obs.Registry, name string) float64 {
	v, _ := reg.Total(name)
	return float64(v)
}

func runTraced(b *bench) (map[string]metric, error) {
	tr := newTracer(fmt.Sprintf("%s-seed%d-pid%d", b.workload, b.seed, os.Getpid()))
	root := tr.begin(0, "run")
	shared := filepath.Join(b.work, "trace")
	if err := os.Mkdir(shared, 0o755); err != nil {
		return nil, err
	}
	var layers []layerMetric
	for _, path := range tracePaths {
		id := tr.begin(root, "trace."+path)
		t, err := b.traceChild(path, shared)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		tr.adopt(id, t.Spans)
		layers = append(layers, t.Metrics...)
	}
	tr.end(root)
	extra, err := b.untraced(tr, shared)
	if err != nil {
		return nil, err
	}
	layers = append(layers, extra...)
	// The trace outlives the run's scratch directory, for inspection.
	tracePath := filepath.Join(filepath.Dir(b.work), fmt.Sprintf("trace-%s-seed%d.jsonl", b.workload, b.seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("trace %s (%d spans)\n", tracePath, len(tr.spans))
	m := map[string]metric{}
	sort.Slice(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
	for _, l := range layers {
		m[l.Name] = metric{l.Value, l.Unit}
		b.lines = append(b.lines, fmt.Sprintf("%s %.6g %s  moves: %s", l.Name, l.Value, l.Unit, l.Moves))
	}
	return m, nil
}

// traceChild runs one traced step in a fresh child and folds its
// operation counts into the run's.
func (b *bench) traceChild(path, shared string) (*traceOut, error) {
	u, err := b.spawn("-kind", "trace", "-path", path, "-seed", itoa(b.seed), "-dir", shared)
	if err != nil {
		return nil, err
	}
	t := u.res.Trace
	if t == nil {
		return nil, fmt.Errorf("trace %s: no trace in the child's result", path)
	}
	b.ops.attempted += t.Attempted
	b.ops.failed += t.Failed
	b.ops.notes = append(b.ops.notes, t.Notes...)
	return t, nil
}

// traceStep runs one traced step in this (child) process.
func traceStep(path string, seed int64, dir string) (*traceOut, error) {
	r := &traceRun{tr: newTracer(""), ctx: context.Background(), seed: seed, dir: dir}
	steps := map[string]func() error{
		"paper":        r.paper,
		"paper-layers": r.paperLayers,
		"devices":      r.deviceLayers,
		"fleet":        r.fleet,
		"fleet-resume": r.fleetResume,
		"serve":        r.serve,
		"serve-plain":  r.servePlain,
	}
	step, ok := steps[path]
	if !ok {
		return nil, fmt.Errorf("unknown trace step %q", path)
	}
	if err := step(); err != nil {
		return nil, err
	}
	return &traceOut{Metrics: r.out, Spans: r.tr.export(), Attempted: r.ops.attempted, Failed: r.ops.failed, Notes: r.ops.notes}, nil
}

// paper is the traced reproduction: one full reproduction of the run's
// first seed with a recorder attached.
func (r *traceRun) paper() error {
	rec := obs.New()
	s, err := session.New(session.WithSeed(r.seed), session.WithWorkers(1), session.WithObs(rec))
	if err != nil {
		return err
	}
	defer s.Close()
	var text bytes.Buffer
	var res *reproduce.Result
	err = r.tr.do(0, "reproduce", func() (err error) {
		res, err = s.Reproduce(r.ctx, &text)
		return err
	})
	cr := childResult{}
	if res != nil {
		cr.Fig4, cr.PowerErr, cr.TimeErr = res.MeanImprovementPct, res.PowerErrPct, res.TimeErrPct
	}
	if err == nil {
		err = checkPaper(text.Bytes(), cr, nil)
	}
	r.ops.attempt(err)
	if err != nil {
		return err
	}
	reg := rec.Metrics()
	cells := total(reg, "characterize_cells_total")
	fig4, pw, tm := accuracy(map[int64]childResult{r.seed: cr})
	r.put("paper.fig4_err_pp", fig4, "pp", "end-to-end accuracy of paper; any change means numerics changed")
	r.put("paper.power_err_pct", pw, "%", "end-to-end accuracy of paper (Table VII)")
	r.put("paper.time_err_pct", tm, "%", "end-to-end accuracy of paper (Table VIII)")
	r.put("characterize.cells", cells, "count", "paper/wall_s, fleet/wall_s (cells per reproduction)")
	r.put("meter.samples_per_cell", total(reg, "meter_samples_total")/cells, "count", "paper/wall_s")
	r.put("core.rows", total(reg, "core_rows_total"), "count", "paper/wall_s (rows per reproduction)")
	r.put("regress.forward_steps", total(reg, "regress_forward_steps_total"), "count", "paper/wall_s (steps per reproduction)")
	return nil
}

// paperLayers times the characterization, modeling and report layers
// board by board, with device boots as child spans of each sweep.
func (r *traceRun) paperLayers() error {
	for _, spec := range arch.AllBoards() {
		board := spec.Name
		var sweep int
		opts := characterize.SweepOptions{
			Seed:    r.seed,
			Workers: 1,
			Boot: func(name string, in *fault.Injector) (*driver.Device, error) {
				id := r.tr.begin(sweep, "driver.boot")
				defer r.tr.end(id)
				return driver.OpenBoardWithFaults(name, in)
			},
		}
		sweep = r.tr.begin(0, "characterize.sweep")
		res, err := characterize.Sweep(r.ctx, []string{board}, workloads.Table4(), opts)
		r.tr.end(sweep)
		if err != nil {
			return err
		}
		if err := r.tr.do(0, "report.render", func() error {
			_ = report.Table4([]*arch.Spec{spec}, res, nil).String()
			return nil
		}); err != nil {
			return err
		}
		var ds *core.Dataset
		if err := r.tr.do(0, "core.collect", func() (err error) {
			ds, err = core.CollectCtx(r.ctx, board, workloads.ModelingSet(), core.CollectOptions{Seed: r.seed, Workers: 1})
			return err
		}); err != nil {
			return err
		}
		for _, kind := range []core.Kind{core.Power, core.Time} {
			if err := r.tr.do(0, "core.train", func() error {
				_, err := core.TrainCtx(r.ctx, ds, kind, core.MaxVariables)
				return err
			}); err != nil {
				return err
			}
		}
	}
	self := r.tr.selfByName()
	r.put("characterize.sweep_self_s", self["characterize.sweep"].Seconds(), "s",
		"paper/wall_s, fleet/wall_s (Table IV over 4 boards, boots excluded)")
	r.put("core.collect_s", median(r.tr.durations("core.collect")), "s", "paper/wall_s (per board)")
	r.put("core.train_ms", 1e3*median(r.tr.durations("core.train")), "ms", "paper/wall_s, guarded by paper accuracy")
	return nil
}

// deviceLayers calls the per-device layers directly on fleet devices:
// generation, counter-set construction, boot, batched precompute,
// compile, per-pair evaluation, a metered run and its metering.
func (r *traceRun) deviceLayers() error {
	fl, err := fleet.New(r.seed, nil, fleetSize, fleet.DefaultJitter())
	if err != nil {
		return err
	}
	benches, err := fleetBenchmarks()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	for i := 0; i < traceDevices; i++ {
		var d fleet.Device
		_ = r.tr.do(0, "fleet.device_gen", func() error { d = fl.Device(i); return nil })
		_ = r.tr.do(0, "counters.forgen", func() error { _ = counters.ForGeneration(d.Spec.Generation); return nil })
		var dev *driver.Device
		if err := r.tr.do(0, "driver.boot", func() (err error) { dev, err = driver.OpenSpec(d.Spec); return err }); err != nil {
			return err
		}
		pairs := clock.ValidPairs(d.Spec)
		for _, bm := range benches {
			ks := bm.Kernels(1)
			if err := r.tr.do(0, "driver.precompute", func() error { _, err := dev.PrecomputePairs(ks, pairs); return err }); err != nil {
				return err
			}
			sim := gpu.New(d.Spec, clock.NewState(d.Spec))
			for _, k := range ks {
				var ck *gpu.CompiledKernel
				if err := r.tr.do(0, "gpu.compile", func() (err error) { ck, err = sim.Compile(k); return err }); err != nil {
					return err
				}
				if err := r.tr.do(0, "gpu.runpairs", func() error { _, err := sim.RunPairs(ck, pairs); return err }); err != nil {
					return err
				}
			}
			var rr *driver.RunResult
			if err := r.tr.do(0, "driver.metered_run", func() (err error) {
				rr, err = dev.RunMetered(bm.Name, ks, bm.HostGap(1), characterize.MinRunSeconds)
				return err
			}); err != nil {
				return err
			}
			if err := r.tr.do(0, "meter.measure", func() error {
				_, err := meter.New().MeasurePeriodic(rr.Trace, rng)
				return err
			}); err != nil {
				return err
			}
		}
	}
	us := func(name string) float64 { return 1e6 * median(r.tr.durations(name)) }
	r.put("fleet.device_gen_us", us("fleet.device_gen"), "us", "fleet/wall_s")
	r.put("counters.forgen_us", us("counters.forgen"), "us", "fleet/wall_s")
	r.put("driver.boot_us", us("driver.boot"), "us", "fleet/wall_s, fleet-resume/wall_s, slightly paper/wall_s")
	r.put("driver.precompute_us", us("driver.precompute"), "us", "fleet/wall_s, paper/wall_s")
	r.put("gpu.compile_us", us("gpu.compile"), "us", "paper/wall_s, fleet/wall_s")
	r.put("gpu.runpairs_us", us("gpu.runpairs"), "us", "paper/wall_s, fleet/wall_s")
	r.put("driver.metered_run_us", us("driver.metered_run"), "us", "fleet/wall_s, paper/wall_s")
	r.put("meter.measure_us", us("meter.measure"), "us", "paper/wall_s")
	return nil
}

// fleetOptions is the traced fleet campaign: the workload's campaign at
// workers 1, journaled to ckpt.
func (r *traceRun) fleetOptions(ckpt string, rec *obs.Recorder, onCell func(int, characterize.Row)) (fleet.Options, error) {
	benches, err := fleetBenchmarks()
	var bases []string
	for _, spec := range arch.AllBoards() {
		bases = append(bases, spec.Name)
	}
	return fleet.Options{
		Seed:       r.seed,
		Size:       fleetSize,
		Shards:     fleetShards,
		Workers:    1,
		Jitter:     fleet.DefaultJitter(),
		BaseBoards: bases,
		Benches:    benches,
		Checkpoint: ckpt,
		Obs:        rec,
		OnCell:     onCell,
	}, err
}

// fleet is the traced fresh campaign, followed by fold and merge probes
// over rows it streamed.
func (r *traceRun) fleet() error {
	dir := filepath.Join(r.dir, "fleet")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	rec := obs.New()
	var mu sync.Mutex
	var rows []characterize.Row
	var folded int
	opts, err := r.fleetOptions(filepath.Join(dir, "ck"), rec, func(_ int, row characterize.Row) {
		mu.Lock()
		folded++
		if len(rows) < traceFoldRows {
			rows = append(rows, row)
		}
		mu.Unlock()
	})
	if err != nil {
		return err
	}
	var rep *fleet.Report
	err = r.tr.do(0, "fleet.run", func() (err error) { rep, err = fleet.Run(r.ctx, opts); return err })
	r.ops.attempt(err)
	if err != nil {
		return err
	}
	var text string
	_ = r.tr.do(0, "report.render", func() error { text = report.FleetSummary(rep); return nil })
	if err := os.WriteFile(filepath.Join(r.dir, "fleet-report.txt"), []byte(text), 0o644); err != nil {
		return err
	}
	reg := rec.Metrics()
	hits, misses := total(reg, "driver_launch_cache_hits_total"), total(reg, "driver_launch_cache_misses_total")
	r.put("driver.boots", total(reg, "driver_boots_total"), "count", "fleet/wall_s (boots per campaign)")
	r.put("driver.cache_hit_ratio_fleet", ratio(hits, hits+misses), "ratio", "fleet/wall_s (≈0 hits: pure cost; 0 once the cache is gone)")
	r.put("characterize.journal_write_mb", dirMB(dir), "MB", "fleet/wall_s")
	r.put("fleet.rows_folded", float64(folded), "count", "fleet/wall_s, fleet-resume/wall_s")

	// Fold the captured rows into two aggregates, then merge and finalize
	// them as the orchestrator does with its shard aggregates.
	half := len(rows) / 2
	aggs := []*fleet.Aggregate{fleet.NewAggregate(), fleet.NewAggregate()}
	for i, part := range [][]characterize.Row{rows[:half], rows[half:]} {
		a := aggs[i]
		_ = r.tr.do(0, "fleet.fold", func() error {
			for _, row := range part {
				a.ConsumeRow(row)
			}
			return nil
		})
	}
	_ = r.tr.do(0, "fleet.merge_finalize", func() error {
		m := fleet.NewAggregate()
		m.Merge(aggs[0])
		m.Merge(aggs[1])
		_ = m.Finalize(r.seed, fleetSize, opts.BaseBoards, opts.Jitter)
		return nil
	})
	var foldS float64
	for _, d := range r.tr.durations("fleet.fold") {
		foldS += d
	}
	r.put("fleet.fold_us", 1e6*foldS/float64(len(rows)), "us", "fleet/wall_s (per row)")
	r.put("fleet.merge_finalize_ms", 1e3*median(r.tr.durations("fleet.merge_finalize")), "ms", "fleet/wall_s, fleet-resume/wall_s")
	r.put("report.render_ms", 1e3*median(r.tr.durations("report.render")), "ms", "paper/wall_s, fleet/wall_s (small; predict no change)")
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fleetResume reads the traced campaign's journals shard by shard, then
// resumes the campaign from a copy of them.
func (r *traceRun) fleetResume() error {
	dir := filepath.Join(r.dir, "resume")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	if err := copyDir(filepath.Join(r.dir, "fleet"), dir); err != nil {
		return err
	}
	want, err := os.ReadFile(filepath.Join(r.dir, "fleet-report.txt"))
	if err != nil {
		return err
	}
	rec := obs.New()
	opts, err := r.fleetOptions(filepath.Join(dir, "ck"), rec, nil)
	if err != nil {
		return err
	}
	cfg := characterize.JournalConfig{Cohort: opts.Cohort()}
	for s := 0; s < fleetShards; s++ {
		path := fleet.ShardPath(opts.Checkpoint, s)
		if err := r.tr.do(0, "characterize.journal_read", func() error {
			_, err := characterize.ReadJournalCells(path, cfg)
			return err
		}); err != nil {
			return err
		}
	}
	var rep *fleet.Report
	err = r.tr.do(0, "fleet.resume", func() (err error) { rep, err = fleet.Run(r.ctx, opts); return err })
	if err == nil && report.FleetSummary(rep) != string(want) {
		err = errors.New("trace: resumed fleet report differs from the fresh campaign's")
	}
	r.ops.attempt(err)
	if err != nil {
		return err
	}
	reg := rec.Metrics()
	r.put("characterize.journal_read_ms", 1e3*median(r.tr.durations("characterize.journal_read")), "ms", "fleet-resume/wall_s (per shard)")
	r.put("characterize.replayed_cells", total(reg, "characterize_journal_hits_total"), "count", "fleet-resume/wall_s")
	r.put("driver.boots_resume", total(reg, "driver_boots_total"), "count", "fleet-resume/wall_s (a resume should need none)")
	return nil
}

// serveKeys lists the traced serve path's campaigns.
func serveKeys(seed int64) []campaignKey {
	var keys []campaignKey
	for _, s := range seedList(seed, serveSeeds) {
		for _, spec := range arch.AllBoards() {
			keys = append(keys, campaignKey{s, spec.Name})
		}
	}
	return keys[:traceCampaign]
}

// newDaemon starts an in-process daemon; stop drains it.
func newDaemon(dir string) (srv *daemon.Server, stop func(), err error) {
	srv, err = daemon.New(daemon.Config{DataDir: dir})
	if err != nil {
		return nil, nil, err
	}
	return srv, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx) // the step's result does not depend on shutdown
	}, nil
}

// checkReports counts each campaign as one operation: it failed with
// errs[i], or its report differs from session.Sweep of the same board and
// seed. The expected reports are rendered only now, so the campaigns ran
// with the process's launch cache as cold as a fresh daemon's. It
// returns every campaign input of the serve workload with its report.
func (r *traceRun) checkReports(keys []campaignKey, got []string, errs []error) ([]campaignKey, map[campaignKey]string, error) {
	all, want, err := serveInputs(seedList(r.seed, serveSeeds))
	if err != nil {
		return nil, nil, err
	}
	for i, k := range keys {
		err := errs[i]
		if err == nil && got[i] != want[k] {
			err = fmt.Errorf("trace: campaign %d (%s seed %d): report differs from session.Sweep", i+1, k.board, k.seed)
		}
		r.ops.attempt(err)
	}
	return all, want, nil
}

// serve drives an in-process daemon through its HTTP handler without a
// network: campaigns, status polls and scrapes, each call a span. It
// then serves the same handler on loopback for a short open-loop burst.
func (r *traceRun) serve() error {
	srv, stop, err := newDaemon(filepath.Join(r.dir, "daemon"))
	if err != nil {
		return err
	}
	defer stop()
	h := srv.Handler()
	var campaign int // the open campaign span, parent of its handler calls
	call := func(name, method, path string, body []byte) ([]byte, int) {
		var rec *httptest.ResponseRecorder
		_ = r.tr.do(campaign, name, func() error {
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return nil
		})
		return rec.Body.Bytes(), rec.Code
	}
	keys := serveKeys(r.seed)
	got := make([]string, len(keys))
	errs := make([]error, len(keys))
	heap0 := liveHeapMB()
	for i, k := range keys {
		campaign = r.tr.begin(0, "serve.campaign")
		got[i], errs[i] = handlerCampaign(call, k)
		r.tr.end(campaign)
	}
	growth := (liveHeapMB() - heap0) / float64(len(keys))

	reg := srv.Recorder().Metrics()
	var expo bytes.Buffer
	for i := 0; i < 10; i++ {
		expo.Reset()
		_ = r.tr.do(0, "obs.render", func() error { return reg.Snapshot().WriteText(&expo) })
	}
	hits, misses := total(reg, "driver_launch_cache_hits_total"), total(reg, "driver_launch_cache_misses_total")
	all, want, err := r.checkReports(keys, got, errs)
	if err != nil {
		return err
	}

	us := func(name string) float64 { return 1e6 * median(r.tr.durations(name)) }
	r.put("daemon.submit_us", us("daemon.submit"), "us", "serve/wall_s")
	r.put("daemon.status_us", us("daemon.status"), "us", "serve/wall_s")
	r.put("daemon.metrics_us", us("daemon.metrics"), "us", "serve/scrape_p50_ms, serve/scrape_tail_ms")
	r.put("daemon.heap_growth_mb_per_campaign", growth, "MB", "serve/peak_rss_mb (campaign retention)")
	r.put("obs.render_us", us("obs.render"), "us", "serve/scrape_p50_ms, serve/scrape_tail_ms")
	r.put("obs.exposition_kb", float64(expo.Len())/1024, "KB", "serve/scrape_p50_ms, serve/scrape_tail_ms")
	r.put("driver.cache_hit_ratio_serve", ratio(hits, hits+misses), "ratio", "serve/wall_s (the cache can pay here; 0 once it is gone)")
	return r.openLoopBurst(h, all, want)
}

// handlerCall is one in-process request to the daemon's handler.
type handlerCall func(name, method, path string, body []byte) ([]byte, int)

// handlerCampaign submits one campaign through the handler and polls it
// to completion, scraping /metrics at every poll. It returns the
// campaign's report.
func handlerCampaign(call handlerCall, k campaignKey) (string, error) {
	req, _ := json.Marshal(daemon.CampaignRequest{Kind: daemon.KindSweep, Seed: k.seed, Boards: []string{k.board}, Workers: 1})
	body, code := call("daemon.submit", http.MethodPost, "/api/v1/campaigns", req)
	var st daemon.CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil || code != http.StatusCreated {
		return "", fmt.Errorf("trace: submit: status %d: %v", code, err)
	}
	for st.State == daemon.StatePending || st.State == daemon.StateRunning {
		time.Sleep(servePollMS * time.Millisecond)
		body, code = call("daemon.status", http.MethodGet, "/api/v1/campaigns/"+st.ID, nil)
		if err := json.Unmarshal(body, &st); err != nil || code != http.StatusOK {
			return "", fmt.Errorf("trace: status: %d: %v", code, err)
		}
		if _, code := call("daemon.metrics", http.MethodGet, "/metrics", nil); code != http.StatusOK {
			return "", fmt.Errorf("trace: /metrics: status %d", code)
		}
	}
	got, code := call("daemon.report", http.MethodGet, "/api/v1/campaigns/"+st.ID+"/report", nil)
	if code != http.StatusOK {
		return "", fmt.Errorf("trace: campaign %s ended %s: report status %d", st.ID, st.State, code)
	}
	return string(got), nil
}

// openLoopBurst serves the handler on loopback and runs the timed serve
// workload's two clients against it for a short window, for the scrape
// figures and the generator's lateness.
func (r *traceRun) openLoopBurst(h http.Handler, keys []campaignKey, want map[campaignKey]string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	deadline := time.Now().Add(traceBurst)
	load := driveLoad(&r.ops, "http://"+ln.Addr().String(), keys, want, deadline)
	if err := hs.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	lat, late := load.scrapeMS()
	_, tailMS, _, _ := tail(lat)
	r.put("serve.scrape_p50_ms", median(lat), "ms", "end-to-end scrape latency of serve, traced in-process daemon")
	r.put("serve.scrape_tail_ms", tailMS, "ms", "end-to-end scrape tail of serve, traced in-process daemon")
	r.put("serve.gen_late_ms", median(late), "ms", "diagnostic: if it rises, scrape figures measure the generator")
	return nil
}

// liveHeapMB forces a collection and reads the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// untraced runs the named workload's unit without tracing, in a fresh
// child at workers 1 like the traced unit, for trace.overhead_pct and the
// per-unit Go runtime figures.
func (b *bench) untraced(tr *tracer, shared string) ([]layerMetric, error) {
	out := filepath.Join(b.work, "untraced.txt")
	var span string
	var u *unitRun
	var err error
	switch b.workload {
	case "paper":
		span = "reproduce"
		u, err = b.spawn("-kind", "paper", "-seed", itoa(b.seed), "-workers", "1", "-out", out)
	case "fleet", "fleet-resume":
		span = "fleet.run"
		dir := filepath.Join(b.work, "untraced")
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		if b.workload == "fleet-resume" {
			span = "fleet.resume"
			if err := copyDir(filepath.Join(shared, "fleet"), dir); err != nil {
				return nil, err
			}
		}
		u, err = b.spawn("-kind", "fleet", "-seed", itoa(b.seed), "-workers", "1",
			"-checkpoint", filepath.Join(dir, "ck"), "-out", out)
	case "serve":
		span = "serve.campaign"
		var t *traceOut
		if t, err = b.traceChild("serve-plain", shared); err == nil {
			// The plain step reports its per-campaign wall and runtime
			// figures as metrics of its own.
			u = &unitRun{}
			for _, l := range t.Metrics {
				switch l.Name {
				case "wall_s":
					u.res.WallS = l.Value
				case "go.alloc_mb":
					u.res.AllocMB = l.Value
				case "go.gc_cycles":
					u.res.GCCycles = l.Value
				case "go.gc_cpu_s":
					u.res.GCCPUS = l.Value
				}
			}
		}
	}
	b.ops.attempt(err)
	if err != nil {
		return nil, err
	}
	traced := median(tr.durations(span))
	w := b.workload + "/wall_s"
	return []layerMetric{
		{"trace.overhead_pct", "%", 100 * (traced/u.res.WallS - 1), "diagnostic: traced ÷ untraced " + b.workload + " unit − 1"},
		{"go.alloc_mb", "MB", u.res.AllocMB, w + " (per unit, untraced)"},
		{"go.gc_cycles", "count", u.res.GCCycles, w + " (per unit, untraced)"},
		{"go.gc_cpu_s", "s", u.res.GCCPUS, w + " (per unit, untraced)"},
	}, nil
}

// servePlain runs the traced serve step's campaigns on a fresh
// in-process daemon with no spans; a serve unit is one campaign.
func (r *traceRun) servePlain() error {
	srv, stop, err := newDaemon(filepath.Join(r.dir, "daemon-plain"))
	if err != nil {
		return err
	}
	defer stop()
	h := srv.Handler()
	call := func(_, method, path string, body []byte) ([]byte, int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Body.Bytes(), rec.Code
	}
	keys := serveKeys(r.seed)
	got := make([]string, len(keys))
	errs := make([]error, len(keys))
	alloc0, cyc0, gc0 := runtimeTotals()
	var walls []float64
	for i, k := range keys {
		start := time.Now()
		got[i], errs[i] = handlerCampaign(call, k)
		walls = append(walls, time.Since(start).Seconds())
	}
	alloc1, cyc1, gc1 := runtimeTotals()
	if _, _, err := r.checkReports(keys, got, errs); err != nil {
		return err
	}
	n := float64(len(keys))
	r.put("wall_s", median(walls), "s", "")
	r.put("go.alloc_mb", (alloc1-alloc0)/n, "MB", "")
	r.put("go.gc_cycles", (cyc1-cyc0)/n, "count", "")
	r.put("go.gc_cpu_s", (gc1-gc0)/n, "s", "")
	return nil
}
