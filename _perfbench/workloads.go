package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// unitRun is what the benchmark observes of one child process.
type unitRun struct {
	setup time.Duration // from Start until the child printed READY
	res   childResult
	rssMB float64 // the child's peak resident set
}

// childTimeout bounds one child process, so a hung unit cannot outlast
// the run.
const childTimeout = 150 * time.Second

// spawn runs one child process to completion and returns its timings.
func (b *bench) spawn(args ...string) (*unitRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.self, append([]string{"child"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var u unitRun
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if l := sc.Text(); l == "READY" && u.setup == 0 {
			u.setup = time.Since(start)
		} else {
			last = l
		}
	}
	_, _ = io.Copy(io.Discard, stdout) // drain after a scanner error so Wait cannot block
	werr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.rssMB = peakRSSMB(ru)
	}
	if werr != nil {
		return &u, fmt.Errorf("child %s: %v: %s", strings.Join(args, " "), werr, lastLine(stderr.String()))
	}
	if u.setup == 0 {
		return &u, fmt.Errorf("child %s: never reported ready", strings.Join(args, " "))
	}
	if last != "" {
		if err := json.Unmarshal([]byte(last), &u.res); err != nil {
			return &u, fmt.Errorf("child %s: result line: %v", strings.Join(args, " "), err)
		}
	}
	return &u, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// setup spawns one set-up-only child and records its set-up time. The
// workloads take one sample before every unit and top up to
// setupSamples at the end, so the samples spread over the window.
func (b *bench) setup(e *endToEnd, args ...string) error {
	u, err := b.spawn(append(args, "-setup-only")...)
	if err != nil {
		return err
	}
	e.setups = append(e.setups, u.setup.Seconds())
	return nil
}

// topUpSetups takes set-up samples until there are setupSamples.
func (b *bench) topUpSetups(e *endToEnd, args ...string) error {
	for len(e.setups) < setupSamples {
		if err := b.setup(e, args...); err != nil {
			return err
		}
	}
	return nil
}

// paperRef is the paper's Fig. 4 mean best-configuration saving per
// board, in percent.
var paperRef = map[string]float64{"GTX 285": 0.8, "GTX 460": 12.3, "GTX 480": 12.1, "GTX 680": 24.4}

var (
	fig4Line    = regexp.MustCompile(`(?m)^(GTX \d+) \(mean (-?[0-9.]+)%\)$`)
	selfCheckOK = regexp.MustCompile(`(?m)^\d+ checks, 0 failed$`)
)

// stripElapsed drops the wall-clock "completed in" line, the one part of
// a report that may differ between runs of the same seed.
func stripElapsed(report []byte) []byte {
	var out []byte
	for _, l := range bytes.SplitAfter(report, []byte("\n")) {
		if !bytes.HasPrefix(l, []byte("reproduction completed in ")) {
			out = append(out, l...)
		}
	}
	return out
}

// checkPaper is the reproduction oracle: the self-check passed, the
// report's Fig. 4 figures are the ones the run returned, and the report
// is byte-identical to every earlier report of the same seed.
func checkPaper(text []byte, cr childResult, ref []byte) error {
	if !selfCheckOK.Match(text) {
		return errors.New("paper: self-check did not report 0 failures")
	}
	found := fig4Line.FindAllSubmatch(text, -1)
	if len(found) != len(paperRef) {
		return fmt.Errorf("paper: %d Fig. 4 board lines, want %d", len(found), len(paperRef))
	}
	for _, m := range found {
		v, _ := strconv.ParseFloat(string(m[2]), 64)
		got, ok := cr.Fig4[string(m[1])]
		if !ok || math.Abs(got-v) > 0.05+1e-9 {
			return fmt.Errorf("paper: Fig. 4 %s reads %v in the report, %v in the result", m[1], v, got)
		}
	}
	if ref != nil && !bytes.Equal(stripElapsed(text), ref) {
		return errors.New("paper: report differs from an earlier report of the same seed")
	}
	return nil
}

func runPaper(b *bench) (endToEnd, error) {
	var e endToEnd
	seeds := seedList(b.seed, paperSeeds)
	args := func(seed int64) []string {
		return []string{"-kind", "paper", "-seed", itoa(seed), "-workers", strconv.Itoa(paperWorkers)}
	}
	refs := map[int64][]byte{}
	first := map[int64]childResult{}
	deadline := time.Now().Add(b.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed := seeds[i%len(seeds)]
		if err := b.setup(&e, args(seed)...); err != nil {
			return e, err
		}
		out := filepath.Join(b.work, "paper.txt")
		u, err := b.spawn(append(args(seed), "-out", out)...)
		if err == nil {
			var text []byte
			if text, err = os.ReadFile(out); err == nil {
				err = checkPaper(text, u.res, refs[seed])
				if refs[seed] == nil {
					refs[seed] = stripElapsed(text)
					first[seed] = u.res
				}
			}
		}
		b.ops.attempt(err)
		if err != nil {
			continue
		}
		e.walls = append(e.walls, u.res.WallS)
		e.rss = append(e.rss, u.rssMB)
	}
	if len(e.walls) == 0 {
		return e, errors.New("paper: no reproduction completed")
	}
	if err := b.topUpSetups(&e, args(seeds[0])...); err != nil {
		return e, err
	}
	fig4, pw, tm := accuracy(first)
	b.report("fig4_err_pp", fig4, "pp", fmt.Sprintf("mean |reproduced - paper| Fig. 4 saving over %d seeds", len(first)))
	b.report("power_err_pct", pw, "%", "mean Table VII power-model error")
	b.report("time_err_pct", tm, "%", "mean Table VIII time-model error")
	return e, nil
}

// accuracy averages, over seeds and then boards, the Fig. 4 distance to
// the paper and the Table VII/VIII model errors.
func accuracy(bySeed map[int64]childResult) (fig4, power, timeErr float64) {
	n := 0.0
	for _, cr := range bySeed {
		var f, p, t float64
		for board, ref := range paperRef {
			f += math.Abs(cr.Fig4[board] - ref)
			p += cr.PowerErr[board]
			t += cr.TimeErr[board]
		}
		k := float64(len(paperRef))
		fig4 += f / k
		power += p / k
		timeErr += t / k
		n++
	}
	return fig4 / n, power / n, timeErr / n
}

func fleetArgs(seed int64) []string {
	return []string{"-kind", "fleet", "-seed", itoa(seed), "-workers", strconv.Itoa(fleetWorkers)}
}

// checkFleet is the campaign oracle: every planned cell resolved, none
// quarantined, and (for a resumed campaign) every cell replayed.
func checkFleet(cr childResult, resumed bool) error {
	p := cr.Progress
	switch {
	case p.Planned == 0 || p.Done != p.Planned:
		return fmt.Errorf("fleet: %d of %d planned cells resolved", p.Done, p.Planned)
	case p.Quarantined != 0:
		return fmt.Errorf("fleet: %d cells quarantined", p.Quarantined)
	case resumed && p.Replayed != p.Planned:
		return fmt.Errorf("fleet-resume: %d of %d cells replayed", p.Replayed, p.Planned)
	case !resumed && p.Replayed != 0:
		return fmt.Errorf("fleet: %d cells replayed by a fresh campaign", p.Replayed)
	}
	return nil
}

// fleetUnit runs one fleet campaign child with its journals under dir and
// checks its report against ref (when non-nil). It returns the report.
func (b *bench) fleetUnit(dir string, resumed bool, ref []byte) (*unitRun, []byte, error) {
	out := filepath.Join(b.work, "fleet.txt")
	u, err := b.spawn(append(fleetArgs(b.seed), "-checkpoint", filepath.Join(dir, "ck"), "-out", out)...)
	if err != nil {
		return u, nil, err
	}
	text, err := os.ReadFile(out)
	if err != nil {
		return u, nil, err
	}
	if err := checkFleet(u.res, resumed); err != nil {
		return u, text, err
	}
	if ref != nil && !bytes.Equal(text, ref) {
		return u, text, errors.New("fleet: report differs from the fresh campaign's report")
	}
	return u, text, nil
}

func runFleet(b *bench) (endToEnd, error) {
	var e endToEnd
	var ref []byte
	deadline := time.Now().Add(b.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := b.setup(&e, fleetArgs(b.seed)...); err != nil {
			return e, err
		}
		dir, err := os.MkdirTemp(b.work, "fleet-")
		if err != nil {
			return e, err
		}
		u, text, err := b.fleetUnit(dir, false, ref)
		if ref == nil {
			ref = text
		}
		b.ops.attempt(err)
		if err == nil {
			e.walls = append(e.walls, u.res.WallS)
			e.rss = append(e.rss, u.rssMB)
			if i == 0 {
				b.report("journal_mb", dirMB(dir), "MB", "per-shard checkpoint journals written per campaign")
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return e, err
		}
	}
	if len(e.walls) == 0 {
		return e, errors.New("fleet: no campaign completed")
	}
	return e, b.topUpSetups(&e, fleetArgs(b.seed)...)
}

func runFleetResume(b *bench) (endToEnd, error) {
	var e endToEnd
	// The input: one complete fresh campaign whose journals every unit
	// resumes from a pristine copy, and whose report every resumed
	// campaign must reproduce byte for byte.
	pristine := filepath.Join(b.work, "pristine")
	if err := os.Mkdir(pristine, 0o755); err != nil {
		return e, err
	}
	_, ref, err := b.fleetUnit(pristine, false, nil)
	if err != nil {
		return e, fmt.Errorf("fleet-resume: preparing journals: %w", err)
	}
	deadline := time.Now().Add(b.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := b.setup(&e, fleetArgs(b.seed)...); err != nil {
			return e, err
		}
		dir, err := os.MkdirTemp(b.work, "resume-")
		if err != nil {
			return e, err
		}
		if err := copyDir(pristine, dir); err != nil {
			return e, err
		}
		u, _, err := b.fleetUnit(dir, true, ref)
		b.ops.attempt(err)
		if err == nil {
			e.walls = append(e.walls, u.res.WallS)
			e.rss = append(e.rss, u.rssMB)
		}
		if err := os.RemoveAll(dir); err != nil {
			return e, err
		}
	}
	if len(e.walls) == 0 {
		return e, errors.New("fleet-resume: no campaign completed")
	}
	return e, b.topUpSetups(&e, fleetArgs(b.seed)...)
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirMB is the total size of the regular files in dir, in MiB.
func dirMB(dir string) float64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return float64(n) / (1 << 20)
}
