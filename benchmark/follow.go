package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// followDrain is how long after the last append every record must have
// become visible; records still invisible then count as failures.
const followDrain = 10 * time.Second

// readEvery paces the reader: 40 reads/s, alternating the full results
// and the metrics exposition.
const readEvery = 25 * time.Millisecond

// followOutcome is what one live run measured.
type followOutcome struct {
	// Setups are launch-to-healthy times of every daemon launch (s).
	Setups []float64
	// Fresh holds, per visible record, the time from its due append to
	// the first SSE frame covering it (s); Missing counts records no
	// frame covered within followDrain.
	Fresh   []float64
	Missing int
	// Reads are read latencies from their due time (ms); BadReads counts
	// failed or non-200 reads.
	Reads    []float64
	BadReads int
	// Lags are how late each append was written (ms).
	Lags []float64
	// CPU is the daemon's CPU time from the first due append until every
	// record was visible, Window that wall time (s).
	CPU, Window float64
	// RSS holds the daemon's resident set size sampled over the window
	// (MB).
	RSS []float64
	// Digest is the final /api/v1/results digest.
	Digest                string
	Publishes, SSEDropped float64
}

// frame is one SSE frame: when it arrived (relative to the run's start)
// and how many records its snapshot covered (folded plus dropped).
type frame struct {
	At      time.Duration
	Covered uint64
}

// freshness matches appended records to the first frame covering them.
// Records are numbered in append order; record n is covered by a frame
// whose folded+dropped count is at least n. Counts can only grow, so a
// frame reporting less than an earlier one (never expected) is read as
// the earlier count. It returns each visible record's latency from its
// due time and the number of records no frame covered.
func freshness(ticks []appendTick, frames []frame) (lat []float64, missing int) {
	fi := 0
	var best uint64
	n := uint64(0)
	for _, t := range ticks {
		for k := 0; k < t.Lines; k++ {
			n++
			for best < n && fi < len(frames) {
				best = max(best, frames[fi].Covered)
				if best < n {
					fi++
				}
			}
			if best < n {
				missing++
				continue
			}
			lat = append(lat, max(frames[fi].At-t.Due, 0).Seconds())
		}
	}
	return lat, missing
}

// coveredCount reads the top-level "records" and "dropped" counts of an
// SSE frame payload without decoding the (possibly megabyte) analyzer
// views it carries. The server encodes maps with sorted keys, so both
// counts follow every nested view ("analyzers", "changed"), and a key
// pattern cannot occur unescaped inside a JSON string: the last match of
// each pattern is the top-level one.
func coveredCount(payload []byte) (uint64, bool) {
	var sum uint64
	for _, key := range []string{`"records":`, `"dropped":`} {
		i := bytes.LastIndex(payload, []byte(key))
		if i < 0 {
			return 0, false
		}
		rest := payload[i+len(key):]
		j := 0
		for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
			j++
		}
		v, err := strconv.ParseUint(string(rest[:j]), 10, 64)
		if err != nil {
			return 0, false
		}
		sum += v
	}
	return sum, true
}

// daemon is one running scraperlabd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// launch starts the daemon and returns once /healthz answers 200, with
// the time from exec to that answer.
func launch(bin string, args []string) (*daemon, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		cmd:    exec.Command(bin, append(args, "-listen", fmt.Sprintf("127.0.0.1:%d", port))...),
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		exited: make(chan struct{}),
	}
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	for {
		if resp, err := probe.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0).Seconds(), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("scraperlabd exited before becoming healthy: %v", d.cmd.ProcessState)
		default:
		}
		// Probe again at once: a refused connection returns in
		// microseconds, far finer than a sleep's granularity.
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("scraperlabd not healthy after 30s")
		}
	}
}

// stop interrupts the daemon (it drains and exits) and waits for it,
// killing it if it lingers.
func (d *daemon) stop() {
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// followArgs are the live workload's daemon flags (the listen address
// is added per launch): CLF tail of one file with whole-second
// timestamps, so reordering is off as in the CI follow smoke test.
func followArgs(path string) []string {
	return []string{"-stream", path, "-follow", "-format", "clf", "-site", "www",
		"-poll", "50ms", "-skew", "-1s", "-publish", "100ms"}
}

// sseWatch subscribes to /events and records every frame's coverage.
// Its reader goroutine owns frames until close returns them.
type sseWatch struct {
	frames  []frame
	want    uint64
	allSeen chan struct{} // closed once coverage reaches want
	onAll   func()
	done    chan struct{}
	body    io.ReadCloser
}

func watchSSE(client *http.Client, base string, start time.Time, want uint64, onAll func()) (*sseWatch, error) {
	resp, err := client.Get(base + "/events")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("/events answered %s", resp.Status)
	}
	w := &sseWatch{want: want, allSeen: make(chan struct{}), onAll: onAll, done: make(chan struct{}), body: resp.Body}
	go func() {
		defer close(w.done)
		br := bufio.NewReaderSize(resp.Body, 1<<20)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			payload, ok := bytes.CutPrefix(line, []byte("data: "))
			if !ok {
				continue
			}
			covered, ok := coveredCount(payload)
			if !ok {
				continue
			}
			w.frames = append(w.frames, frame{At: time.Since(start), Covered: covered})
			if covered >= w.want && w.onAll != nil {
				w.onAll()
				w.onAll = nil
				close(w.allSeen)
			}
		}
	}()
	return w, nil
}

// close ends the subscription and waits for the reader.
func (w *sseWatch) close() []frame {
	w.body.Close()
	<-w.done
	return w.frames
}

// driveFollow runs the live workload against the daemon binary: it times
// SetupLaunches launches, then on the last one appends the source on
// the open-loop schedule while one SSE subscription records visibility
// and a paced reader hits the API, and finally collects the daemon's
// CPU, peak RSS and final results.
func driveFollow(bin string, fi followInput, sz sizes) (followOutcome, error) {
	var out followOutcome
	args := followArgs(fi.Paths[0])
	var d *daemon
	for i := 0; i < sz.SetupLaunches; i++ {
		dd, setup, err := launch(bin, args)
		if err != nil {
			return out, err
		}
		out.Setups = append(out.Setups, setup)
		if i < sz.SetupLaunches-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()
	pid := d.cmd.Process.Pid

	f, err := os.OpenFile(fi.Paths[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return out, err
	}
	defer f.Close()

	start := time.Now().Add(100 * time.Millisecond)
	cpu0, err := procCPU(pid)
	if err != nil {
		return out, err
	}
	rss := sampleRSS(pid)
	var cpuAll time.Duration
	var seenAt time.Duration
	sse, err := watchSSE(&http.Client{}, d.base, start, uint64(fi.Records), func() {
		seenAt = time.Since(start)
		cpuAll, _ = procCPU(pid)
	})
	if err != nil {
		rss.finish()
		return out, err
	}

	stopReads := make(chan struct{})
	readsDone := make(chan struct{})
	reader := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	go func() {
		defer close(readsDone)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * readEvery)
			select {
			case <-stopReads:
				return
			case <-time.After(time.Until(due)):
			}
			path := "/api/v1/results"
			if i%2 == 1 {
				path = "/metrics"
			}
			resp, err := reader.Get(d.base + path)
			ok := err == nil && resp.StatusCode == http.StatusOK
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok = ok && err == nil
			}
			out.Reads = append(out.Reads, float64(time.Since(due).Nanoseconds())/1e6)
			if !ok {
				out.BadReads++
			}
		}
	}()

	var appendErr error
	for _, t := range fi.Ticks {
		due := start.Add(t.Due)
		time.Sleep(time.Until(due))
		out.Lags = append(out.Lags, float64(time.Since(due).Nanoseconds())/1e6)
		if _, appendErr = f.Write(fi.Src[t.Off:t.End]); appendErr != nil {
			break
		}
	}
	if appendErr == nil {
		select {
		case <-sse.allSeen:
		case <-time.After(time.Until(start.Add(fi.Ticks[len(fi.Ticks)-1].Due + followDrain))):
		}
	}
	out.RSS = rss.finish()
	close(stopReads)
	<-readsDone
	frames := sse.close()
	if appendErr != nil {
		return out, appendErr
	}

	body, err := getBody(reader, d.base+"/api/v1/results")
	if err != nil {
		return out, err
	}
	var api struct{ Data json.RawMessage }
	if err := json.Unmarshal(body, &api); err != nil {
		return out, err
	}
	if out.Digest, err = digestBytes(api.Data); err != nil {
		return out, err
	}
	exposition, err := getBody(reader, d.base+"/metrics")
	if err != nil {
		return out, err
	}
	out.Publishes = promValue(exposition, "scraperlab_snapshots_published_total")
	out.SSEDropped = promValue(exposition, "scraperlab_sse_dropped_total")
	out.Fresh, out.Missing = freshness(fi.Ticks, frames)
	if cpuAll == 0 {
		// Not every record became visible: charge the whole drain window.
		seenAt = time.Since(start)
		cpuAll, _ = procCPU(pid)
	}
	out.CPU = (cpuAll - cpu0).Seconds()
	out.Window = seenAt.Seconds()
	return out, nil
}

// getBody fetches url and requires a 200.
func getBody(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}
