// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed number of seconds, checks the program's
// outputs, and prints every end-to-end metric (or, with -trace 1, every
// per-layer metric) followed by one JSON result line. See README.md.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash _perfbench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
//
// The same binary is also the fresh child process each unit of work runs
// in ("perfbench child ..."); that mode is internal to the benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workloadNames lists the workloads; BENCHMARK.json gates the first three
// (see README.md for why serve is not gated).
var workloadNames = []string{"paper", "fleet", "fleet-resume", "serve"}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and their failures. An operation fails when it
// errors, is refused, returns a non-2xx status or fails a correctness
// check; the first few failure messages are kept for the log.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) attempt(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.notes) < 8 {
			t.notes = append(t.notes, err.Error())
		}
	}
}

func (t *tally) rate() float64 { return errorRate(t.failed, t.attempted) }

// bench is one benchmark invocation: the workload, its seed-derived
// inputs, the measuring window, and where it may write.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	work     string // scratch directory inside the checkout, removed at exit
	self     string // this executable, re-run as the child process

	ops   tally
	lines []string // "<workload>/<metric> value unit" report lines
}

// report records a metric line for the human-readable log.
func (b *bench) report(name string, value float64, unit, note string) {
	line := fmt.Sprintf("%s/%s %s %s", b.workload, name, strconv.FormatFloat(value, 'g', 8, 64), unit)
	if note != "" {
		line += "  # " + note
	}
	b.lines = append(b.lines, line)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 25, "measuring window per run, seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds ≥ 1, --trace 0|1\n", strings.Join(workloadNames, ","))
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	if work, err = filepath.Abs(work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		work:     work,
		self:     self,
	}
	stamp := environmentStamp(b, *trace == 1)
	line, _ := json.Marshal(stamp)
	fmt.Printf("env %s\n", line)

	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = runTraced(b)
	} else {
		metrics, err = runTimed(b)
	}
	if err != nil {
		// A run that cannot measure prints no result.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.report("error_rate", b.ops.rate(), "ratio", fmt.Sprintf("%d failed of %d attempted", b.ops.failed, b.ops.attempted))
	for _, l := range b.lines {
		fmt.Println(l)
	}
	for _, n := range b.ops.notes {
		fmt.Println("failure:", n)
	}
	res := result{
		Correct:   b.ops.failed == 0,
		Attempted: b.ops.attempted,
		Failed:    b.ops.failed,
		Metrics:   metrics,
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n", out)
	return 0
}

// runTimed runs the workload untraced and returns its end-to-end
// metrics, the set BENCHMARK.json lists under end_to_end.
func runTimed(b *bench) (map[string]metric, error) {
	var e2e endToEnd
	var err error
	switch b.workload {
	case "paper":
		e2e, err = runPaper(b)
	case "fleet":
		e2e, err = runFleet(b)
	case "fleet-resume":
		e2e, err = runFleetResume(b)
	case "serve":
		e2e, err = runServe(b)
	}
	if err != nil {
		return nil, err
	}
	return e2e.metrics(b), nil
}

// endToEnd holds the metrics every workload reports.
type endToEnd struct {
	setups []float64 // seconds, one per fresh-process set-up
	walls  []float64 // seconds, one per unit of work
	rss    []float64 // MiB, peak RSS of each program process
}

func (e endToEnd) metrics(b *bench) map[string]metric {
	m := map[string]metric{
		"setup_s":     {median(e.setups), "s"},
		"wall_s":      {median(e.walls), "s"},
		"peak_rss_mb": {median(e.rss), "MB"},
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		switch n {
		case "setup_s":
			note = fmt.Sprintf("median of %d fresh-process set-ups", len(e.setups))
		case "wall_s":
			w := sorted(e.walls)
			note = fmt.Sprintf("median of %d units, min %.4g max %.4g", len(w), w[0], w[len(w)-1])
		case "peak_rss_mb":
			note = fmt.Sprintf("median over %d program processes", len(e.rss))
		}
		b.report(n, m[n].Value, m[n].Unit, note)
	}
	return m
}

// seedList derives the n unit seeds of a run from its seed argument.
func seedList(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed + int64(i)
	}
	return out
}
