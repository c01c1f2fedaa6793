package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/metrics"
	"syscall"
	"time"

	"gpuperf/internal/daemon"
	"gpuperf/internal/report"
	"gpuperf/internal/session"
	"gpuperf/internal/workloads"
)

// The child process runs one unit of work the way a command-line user
// runs it: a fresh process, so every process-wide cache and pool starts
// cold. It prints "READY" once its session is set up, then one JSON
// childResult line when the unit is done.

// childResult is what a unit child reports to the benchmark.
type childResult struct {
	WallS float64 `json:"wall_s"`
	// Reproductions: the headline accuracy figures per board.
	Fig4     map[string]float64 `json:"fig4,omitempty"`
	PowerErr map[string]float64 `json:"power_err_pct,omitempty"`
	TimeErr  map[string]float64 `json:"time_err_pct,omitempty"`
	// Sweeps and fleets: resolved cells.
	Progress session.Progress `json:"progress"`
	// Traced steps: their spans and per-layer metrics.
	Trace *traceOut `json:"trace,omitempty"`
	// Go runtime totals of the whole child process.
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles float64 `json:"gc_cycles"`
	GCCPUS   float64 `json:"gc_cpu_s"`
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	kind := fs.String("kind", "", "paper, fleet, serve or trace")
	seed := fs.Int64("seed", 1, "campaign seed")
	workers := fs.Int("workers", 1, "pool width")
	ckpt := fs.String("checkpoint", "", "fleet checkpoint base path")
	out := fs.String("out", "", "report file")
	setupOnly := fs.Bool("setup-only", false, "exit after set-up")
	dataDir := fs.String("data-dir", "", "serve: daemon data directory")
	path := fs.String("path", "", "trace: the traced step")
	dir := fs.String("dir", "", "trace: directory shared by the run's steps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch *kind {
	case "paper":
		err = paperChild(*seed, *workers, *out, *setupOnly)
	case "fleet":
		err = fleetChild(*seed, *workers, *ckpt, *out, *setupOnly)
	case "serve":
		err = serveChild(*dataDir)
	case "trace":
		ready()
		var t *traceOut
		if t, err = traceStep(*path, *seed, *dir); err == nil {
			err = emit(childResult{Trace: t})
		}
	default:
		err = fmt.Errorf("unknown child kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func ready() { fmt.Println("READY") }

func paperChild(seed int64, workers int, out string, setupOnly bool) error {
	s, err := session.New(session.WithSeed(seed), session.WithWorkers(workers))
	if err != nil {
		return err
	}
	defer s.Close()
	ready()
	if setupOnly {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	start := time.Now()
	res, err := s.Reproduce(context.Background(), w)
	if err == nil {
		err = w.Flush()
	}
	wall := time.Since(start)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	cr := childResult{
		WallS:    wall.Seconds(),
		Fig4:     res.MeanImprovementPct,
		PowerErr: res.PowerErrPct,
		TimeErr:  res.TimeErrPct,
	}
	return emit(cr)
}

// fleetSession opens the fleet campaign's session; the set-up every fleet
// and fleet-resume unit pays.
func fleetSession(seed int64, workers int, ckpt string) (*session.Session, error) {
	opts := []session.Option{
		session.WithSeed(seed),
		session.WithWorkers(workers),
		session.WithFleet(fleetSize, fleetShards, ""),
	}
	if ckpt != "" {
		opts = append(opts, session.WithCheckpoint(ckpt))
	}
	return session.New(opts...)
}

func fleetBenchmarks() ([]*workloads.Benchmark, error) {
	out := make([]*workloads.Benchmark, len(fleetBenches))
	for i, n := range fleetBenches {
		if out[i] = workloads.ByName(n); out[i] == nil {
			return nil, fmt.Errorf("unknown benchmark %q", n)
		}
	}
	return out, nil
}

func fleetChild(seed int64, workers int, ckpt, out string, setupOnly bool) error {
	benches, err := fleetBenchmarks()
	if err != nil {
		return err
	}
	s, err := fleetSession(seed, workers, ckpt)
	if err != nil {
		return err
	}
	defer s.Close()
	ready()
	if setupOnly {
		return nil
	}
	start := time.Now()
	rep, err := s.Fleet(context.Background(), benches)
	if err != nil {
		return err
	}
	text := report.FleetSummary(rep)
	if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
		return err
	}
	cr := childResult{WallS: time.Since(start).Seconds(), Progress: s.Progress()}
	return emit(cr)
}

// serveChild is one gpuperfd-like daemon on a loopback port chosen by
// the kernel. It prints "ADDR host:port" once listening and drains on
// SIGTERM.
func serveChild(dataDir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	srv, err := daemon.New(daemon.Config{DataDir: dataDir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Printf("ADDR %s\n", ln.Addr())
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return err
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		return err
	}
	return nil
}

// emit reads the Go runtime totals into cr and prints it.
func emit(cr childResult) error {
	cr.AllocMB, cr.GCCycles, cr.GCCPUS = runtimeTotals()
	line, err := json.Marshal(cr)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runtimeTotals reads the process's cumulative heap allocation, GC
// cycles and GC CPU time from runtime/metrics.
func runtimeTotals() (allocMB, gcCycles, gcCPUS float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return num(s[0].Value) / (1 << 20), num(s[1].Value), num(s[2].Value)
}
