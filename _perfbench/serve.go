package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/daemon"
	"gpuperf/internal/report"
	"gpuperf/internal/session"
	"gpuperf/internal/workloads"
)

// The serve workload keeps one daemon child for the whole run, as
// gpuperfd users do, and drives it with two clients from this process:
// a closed loop of single-board Table IV sweep campaigns (the next POST
// goes out serveThinkMS after the previous campaign completed) and an
// open-loop /metrics scraper at scrapePerSec, timed from each scrape's
// due time. Each client holds one connection.

// campaignKey names one distinct campaign input.
type campaignKey struct {
	seed  int64
	board string
}

// serveInputs lists the campaign inputs in submission order and renders
// each one's expected report in-process through session.Sweep.
func serveInputs(seeds []int64) ([]campaignKey, map[campaignKey]string, error) {
	var keys []campaignKey
	want := map[campaignKey]string{}
	for _, seed := range seeds {
		for _, spec := range arch.AllBoards() {
			k := campaignKey{seed, spec.Name}
			text, err := sweepReport(k)
			if err != nil {
				return nil, nil, err
			}
			keys = append(keys, k)
			want[k] = text
		}
	}
	return keys, want, nil
}

// sweepReport renders the Table IV report a campaign for k must return.
func sweepReport(k campaignKey) (string, error) {
	s, err := session.New(session.WithSeed(k.seed), session.WithBoards(k.board), session.WithWorkers(1))
	if err != nil {
		return "", err
	}
	defer s.Close()
	res, err := s.Sweep(context.Background(), workloads.Table4())
	if err != nil {
		return "", err
	}
	return report.Table4(s.Boards(), res, nil).String() + "\n", nil
}

// daemonProc is a running daemon child.
type daemonProc struct {
	cmd    *exec.Cmd
	stdout io.ReadCloser
	stderr bytes.Buffer
	base   string // http://host:port
}

// startDaemon spawns a daemon child and waits until /readyz answers 200;
// the returned duration is that set-up time.
func (b *bench) startDaemon(dataDir string) (*daemonProc, time.Duration, error) {
	d := &daemonProc{cmd: exec.Command(b.self, "child", "-kind", "serve", "-data-dir", dataDir)}
	d.cmd.Stderr = &d.stderr
	var err error
	if d.stdout, err = d.cmd.StdoutPipe(); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	line, err := bufio.NewReader(d.stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ADDR ")
	if err != nil || !ok {
		_, _ = d.stop()
		return nil, 0, fmt.Errorf("serve: daemon did not report its address: %v %s", err, lastLine(d.stderr.String()))
	}
	d.base = "http://" + addr
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	for time.Since(start) < 30*time.Second {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	_, _ = d.stop()
	return nil, 0, errors.New("serve: daemon never became ready")
}

// stop drains the daemon with SIGTERM, waits for it and returns its peak
// RSS.
func (d *daemonProc) stop() (float64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reaped by Wait below
	_, _ = io.Copy(io.Discard, d.stdout)
	err := d.cmd.Wait()
	var rss float64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = peakRSSMB(ru)
	}
	if err != nil {
		return rss, fmt.Errorf("serve: daemon exit: %v: %s", err, lastLine(d.stderr.String()))
	}
	return rss, nil
}

// serveLoad is the measured outcome of a load phase.
type serveLoad struct {
	campaigns []float64 // seconds from POST to completed
	scrapes   []openLoopSample
	expoBytes int // size of the last /metrics exposition
}

func runServe(b *bench) (endToEnd, error) {
	var e endToEnd
	keys, want, err := serveInputs(seedList(b.seed, serveSeeds))
	if err != nil {
		return e, err
	}
	// Set-up: fresh daemons until /readyz answers; the last one serves
	// the load.
	var d *daemonProc
	for i := 0; i < serveSetups; i++ {
		dir := filepath.Join(b.work, "daemon-"+strconv.Itoa(i))
		proc, setup, err := b.startDaemon(dir)
		if err != nil {
			return e, err
		}
		e.setups = append(e.setups, setup.Seconds())
		if i < serveSetups-1 {
			if _, err := proc.stop(); err != nil {
				return e, err
			}
			continue
		}
		d = proc
	}
	load := driveLoad(&b.ops, d.base, keys, want, time.Now().Add(b.seconds))
	rss, err := d.stop()
	b.ops.attempt(err)
	if len(load.campaigns) == 0 {
		return e, errors.New("serve: no campaign completed")
	}
	e.walls = load.campaigns
	e.rss = []float64{rss}
	b.reportScrapes(load)
	return e, nil
}

// scrapeMS lists the scrapes' latencies and the generator's lateness, in
// milliseconds.
func (l serveLoad) scrapeMS() (lat, late []float64) {
	for _, s := range l.scrapes {
		lat = append(lat, float64(s.latency())/1e6)
		late = append(late, float64(s.lateness())/1e6)
	}
	return lat, late
}

// reportScrapes logs the open-loop scrape figures and the generator's
// own lateness.
func (b *bench) reportScrapes(load serveLoad) {
	lat, late := load.scrapeMS()
	b.report("campaigns", float64(len(load.campaigns)), "count", "closed-loop sweep campaigns completed")
	b.report("scrape_p50_ms", median(lat), "ms", fmt.Sprintf("n=%d, from due time", len(lat)))
	if p, v, beyond, ok := tail(lat); ok {
		b.report("scrape_tail_ms", v, "ms", fmt.Sprintf("p%v, n=%d, %d beyond", p, len(lat), beyond))
	}
	b.report("gen_late_ms", median(late), "ms", "median generator lateness")
	b.report("exposition_kb", float64(load.expoBytes)/1024, "KB", "last /metrics body")
}

// driveLoad runs both clients until the measuring window closes.
func driveLoad(ops *tally, base string, keys []campaignKey, want map[campaignKey]string, deadline time.Time) serveLoad {
	var load serveLoad
	var mu sync.Mutex // guards ops from both clients
	record := func(err error) {
		mu.Lock()
		ops.attempt(err)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		load.campaigns = campaignLoop(base, keys, want, deadline, record)
	}()
	go func() {
		defer wg.Done()
		load.scrapes, load.expoBytes = scrapeLoop(base, deadline, record)
	}()
	wg.Wait()
	return load
}

func newClient() (*http.Client, func()) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr.CloseIdleConnections
}

// getBody fetches a URL and fails on any non-2xx status.
func getBody(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return body, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// campaignLoop is the closed-loop client. It returns the POST-to-
// completed time of every campaign that completed correctly.
func campaignLoop(base string, keys []campaignKey, want map[campaignKey]string, deadline time.Time, record func(error)) []float64 {
	c, closeIdle := newClient()
	defer closeIdle()
	var lat []float64
	for i := 0; time.Now().Before(deadline); i++ {
		k := keys[i%len(keys)]
		start := time.Now()
		err := runCampaign(c, base, k, want[k])
		record(err)
		if err == nil {
			lat = append(lat, time.Since(start).Seconds())
		}
		time.Sleep(serveThinkMS * time.Millisecond)
	}
	return lat
}

// runCampaign submits one campaign, waits for it and checks its report.
func runCampaign(c *http.Client, base string, k campaignKey, want string) error {
	req, _ := json.Marshal(daemon.CampaignRequest{Kind: daemon.KindSweep, Seed: k.seed, Boards: []string{k.board}, Workers: 1})
	resp, err := c.Post(base+"/api/v1/campaigns", "application/json", bytes.NewReader(req))
	if err != nil {
		return err
	}
	var st daemon.CampaignStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST campaign: status %d", resp.StatusCode)
	}
	for st.State == daemon.StatePending || st.State == daemon.StateRunning {
		time.Sleep(servePollMS * time.Millisecond)
		body, err := getBody(c, base+"/api/v1/campaigns/"+st.ID)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
	}
	if st.State != daemon.StateCompleted {
		return fmt.Errorf("campaign %s (%s seed %d) ended %s: %s", st.ID, k.board, k.seed, st.State, st.Error)
	}
	if p := st.Progress; p.Done != p.Planned || p.Quarantined != 0 {
		return fmt.Errorf("campaign %s: %d/%d cells, %d quarantined", st.ID, p.Done, p.Planned, p.Quarantined)
	}
	got, err := getBody(c, base+"/api/v1/campaigns/"+st.ID+"/report")
	if err != nil {
		return err
	}
	if string(got) != want {
		return fmt.Errorf("campaign %s (%s seed %d): report differs from session.Sweep", st.ID, k.board, k.seed)
	}
	return nil
}

// scrapeLoop is the open-loop scraper. A scheduler goroutine wakes at
// each due time and queues the scrape; one sender works the queue, so a
// slow scrape delays the next ones and that delay is charged to them.
func scrapeLoop(base string, deadline time.Time, record func(error)) ([]openLoopSample, int) {
	c, closeIdle := newClient()
	defer closeIdle()
	period := time.Second / scrapePerSec
	start := time.Now()
	n := int(deadline.Sub(start) / period)
	// Sized to every scrape of the window, so the scheduler never blocks
	// behind a slow sender and its lateness stays its own.
	queue := make(chan openLoopSample, n)
	go func() {
		defer close(queue)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * period)
			time.Sleep(time.Until(due))
			queue <- openLoopSample{due: due, sent: time.Now()}
		}
	}()
	var out []openLoopSample
	var prevCells int64
	size := 0
	for s := range queue {
		body, err := getBody(c, base+"/metrics")
		s.done = time.Now()
		if err == nil {
			var cells int64
			if cells, err = counterTotal(body, "characterize_cells_total"); err == nil && cells < prevCells {
				err = fmt.Errorf("/metrics: characterize_cells_total went back from %d to %d", prevCells, cells)
			}
			prevCells = cells
			size = len(body)
		}
		record(err)
		out = append(out, s)
	}
	return out, size
}

// counterTotal sums every series of a counter family in a Prometheus
// text exposition. A missing family reads as zero.
func counterTotal(body []byte, family string) (int64, error) {
	var total int64
	for _, line := range bytes.Split(body, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(family))
		if !ok || len(rest) == 0 || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := bytes.Fields(line)
		v, err := strconv.ParseInt(string(f[len(f)-1]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/metrics: %q: %v", line, err)
		}
		total += v
	}
	return total, nil
}
