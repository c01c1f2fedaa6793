package fleet

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"

	"gpuperf/internal/characterize"
	"gpuperf/internal/validity"
)

// Sharded checkpointing: each shard journals its cells to
// <checkpoint>.shard<N>, all bound to the same fleet cohort — which
// deliberately excludes the shard count, so a campaign interrupted at
// -shards 8 can resume at -shards 2. On resume the orchestrator decodes
// every existing shard file exactly once (the torn-line-safe codec from
// the single-board journal, several files at a time), hands each cell
// that belongs to another shard under the new layout to that shard's
// journal, writes every shard file once, and renames absorbed leftover
// files (old indices ≥ the new shard count) to <file>.merged. A shard
// file that cannot be attributed at all — no parseable header, unknown
// version — is quarantined to <file>.quarantined and its shard starts
// fresh; a file provably bound to a different cohort is a hard error,
// exactly like the single-board journal, and nothing is renamed.
//
// When several copies of one cell exist, the merge keeps exactly one:
// within a file the last line wins, a shard's own file wins over every
// other file, and among other files the lowest shard index wins.

// ShardPath names shard s's checkpoint journal under the campaign's
// base checkpoint path.
func ShardPath(base string, s int) string {
	return base + ".shard" + strconv.Itoa(s)
}

var shardFileRe = regexp.MustCompile(`\.shard(\d+)$`)

// shardFile is one existing <base>.shard<idx> journal file.
type shardFile struct {
	path string
	idx  int
}

// scanShardFiles lists the existing shard journals under base in
// ascending shard index, skipping .stale/.merged/.quarantined leftovers.
func scanShardFiles(base string) ([]shardFile, error) {
	matches, err := filepath.Glob(base + ".shard*")
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint scan: %w", err)
	}
	var files []shardFile
	for _, path := range matches {
		m := shardFileRe.FindStringSubmatch(path)
		if m == nil {
			continue
		}
		idx, err := strconv.Atoi(m[1])
		if err != nil || path != ShardPath(base, idx) {
			continue // not a name the orchestrator writes (e.g. .shard007)
		}
		files = append(files, shardFile{path: path, idx: idx})
	}
	sort.Slice(files, func(a, b int) bool { return files[a].idx < files[b].idx })
	return files, nil
}

// shardOwner maps a device name to the shard that owns it under a
// layout of `shards`, or -1 for a name outside the fleet — an orphan
// cell from an older fleet geometry.
func shardOwner(fl *Fleet, shards int) func(board string) int {
	return func(board string) int {
		idx, ok := DeviceIndex(board)
		if !ok || idx >= fl.size || fl.DeviceName(idx) != board {
			return -1
		}
		return idx % shards
	}
}

// forEachBounded runs fn(0..n-1) on at most workers goroutines.
func forEachBounded(n, workers int, fn func(i int)) {
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// mergeShardJournals decodes every existing <base>.shard<k> file once,
// at most workers files at a time, under the fleet cohort, and returns
// one journal per shard, not yet open for writing: the shard's own file
// plus the cells other files hold for boards it owns. owner maps a board
// to its shard under the new layout, or -1 for a board outside the fleet
// (such cells stay only in the file that holds them). Foreign files are
// quarantined (renamed and skipped); files whose index no longer maps to
// a shard are renamed to <file>.merged so a later resume does not
// re-read them. A *CohortMismatchError is returned as the hard error it
// is, before any file is renamed. Calls to warn are serialized.
func mergeShardJournals(base string, shards, workers int, cohort validity.Cohort, owner func(board string) int, warn func(string, ...any)) ([]*characterize.Journal, error) {
	files, err := scanShardFiles(base)
	if err != nil {
		return nil, err
	}
	decoded := make([]*characterize.Journal, len(files))
	errs := make([]error, len(files))
	var warnMu sync.Mutex
	cfg := characterize.JournalConfig{Cohort: cohort, Warn: func(format string, args ...any) {
		warnMu.Lock()
		defer warnMu.Unlock()
		warn(format, args...)
	}}
	forEachBounded(len(files), workers, func(i int) {
		decoded[i], errs[i] = characterize.DecodeJournal(files[i].path, cfg)
	})
	for _, err := range errs {
		// Includes *characterize.CohortMismatchError: the file belongs to
		// a different campaign — never merge across cohorts.
		if err != nil && !errors.Is(err, characterize.ErrForeignJournal) && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}

	journals := make([]*characterize.Journal, shards)
	var sources []*characterize.Journal // every decoded file, ascending index
	for i, f := range files {
		switch {
		case errors.Is(errs[i], characterize.ErrForeignJournal):
			// Unattributable shard file: quarantine it — its cells are
			// lost, but the merge (and every other shard's checkpoint)
			// survives.
			q := f.path + ".quarantined"
			if err := os.Rename(f.path, q); err != nil {
				return nil, fmt.Errorf("fleet: quarantining %s: %w", f.path, err)
			}
			warn("shard journal %s is unreadable; quarantined to %s", f.path, q)
			continue
		case errs[i] != nil:
			continue // vanished since the scan
		}
		sources = append(sources, decoded[i])
		if f.idx < shards {
			journals[f.idx] = decoded[i]
			continue
		}
		if err := os.Rename(f.path, f.path+".merged"); err != nil {
			return nil, fmt.Errorf("fleet: absorbing %s: %w", f.path, err)
		}
	}
	for s, j := range journals {
		if j == nil {
			journals[s] = characterize.NewJournal()
		}
	}
	// Each shard journal already holds its own file, so it keeps its own
	// copies; visiting the other files in ascending index with
	// adopt-if-absent makes the lowest index win among them.
	route := func(board string) *characterize.Journal {
		if s := owner(board); s >= 0 {
			return journals[s]
		}
		return nil
	}
	for _, src := range sources {
		src.Distribute(route)
	}
	return journals, nil
}
