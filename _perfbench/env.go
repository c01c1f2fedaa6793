package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Workload sizes. They are part of the environment stamp: figures taken
// at other sizes belong to another cohort and must not be compared.
const (
	paperSeeds    = 4     // reproductions cycle over this many seeds
	paperWorkers  = 2     // -workers of every reproduction
	fleetSize     = 10000 // devices per fleet campaign
	fleetShards   = 2
	fleetWorkers  = 2
	setupSamples  = 15              // fresh-process set-ups per run at least; one precedes every unit
	serveSetups   = 7               // serve: daemon starts per run; the last one serves the load
	serveSeeds    = 2               // campaign seeds; campaigns cycle seeds × boards
	serveThinkMS  = 400             // closed-loop think time between campaigns
	scrapePerSec  = 50              // open-loop /metrics rate
	servePollMS   = 2               // campaign status poll interval
	traceCampaign = 8               // campaigns in the traced serve path
	traceDevices  = 16              // fleet devices the traced layer probes boot
	traceFoldRows = 8192            // rows the traced fold probe re-folds
	traceBurst    = 3 * time.Second // traced open-loop scrape window
)

// fleetBenches is the fleet benchmark pair: one compute-bound, one
// memory-bound.
var fleetBenches = []string{"backprop", "streamcluster"}

// stamp identifies the run's cohort.
type stamp struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	Commit     string         `json:"commit"`
	SourceHash string         `json:"source_sha256"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seeds      []int64        `json:"seeds"`
	Seconds    float64        `json:"seconds"`
	Traced     bool           `json:"traced"`
	Sizes      map[string]any `json:"sizes"`
}

func environmentStamp(b *bench, traced bool) stamp {
	var seeds []int64
	switch b.workload {
	case "paper":
		seeds = seedList(b.seed, paperSeeds)
	case "serve":
		seeds = seedList(b.seed, serveSeeds)
	default:
		seeds = []int64{b.seed}
	}
	return stamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Commit:     gitHead("."),
		SourceHash: sourceHash("."),
		Workload:   b.workload,
		Seed:       b.seed,
		Seeds:      seeds,
		Seconds:    b.seconds.Seconds(),
		Traced:     traced,
		Sizes: map[string]any{
			"paper_workers":    paperWorkers,
			"fleet_devices":    fleetSize,
			"fleet_shards":     fleetShards,
			"fleet_workers":    fleetWorkers,
			"fleet_benchmarks": fleetBenches,
			"setup_samples":    setupSamples,
			"serve_setups":     serveSetups,
			"serve_think_ms":   serveThinkMS,
			"scrapes_per_s":    scrapePerSec,
			"trace_campaigns":  traceCampaign,
			"trace_devices":    traceDevices,
			"trace_fold_rows":  traceFoldRows,
			"serve_campaign":   "Table IV sweep, one board, workers 1",
			"trace_burst_s":    traceBurst.Seconds(),
		},
	}
}

// gitHead resolves HEAD when the tree is a git checkout; "none" otherwise
// (the source hash still identifies the code).
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(l); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "none"
}

// sourceHash digests every Go source and go.mod file of the tree (paths
// and contents), skipping dot- and underscore-directories, so two runs
// report the same hash exactly when they built the same program.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not belong to the build
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
