// Command benchmark is the observatory's end-to-end benchmark. For each
// workload it generates inputs from a seed, hands the system only the
// generated files, runs the production entry points —
// core.NewObservatory(...).Run in process for the one-shot workloads,
// the real scraperlabd binary for the live one — checks every result
// against a serial reference that is itself checked against the batch
// methodology, and prints every end-to-end metric by name and unit,
// then one JSON result line. With -trace 1 it instead runs the workload
// on one processor with spans around each layer's public calls, prints
// the per-layer stage budget, and writes trace.json.
//
// Build and run it with benchmark/run.sh from the repository root:
//
//	bash benchmark/run.sh -seed 1                                   # every workload
//	bash benchmark/run.sh --workload estate-csv --seed 3 --seconds 20 --trace 0
//	bash benchmark/run.sh -workload hotua-jsonl -trace 1            # stage budget
//	bash benchmark/run.sh -seed 1 -record a.jsonl; ...; bash benchmark/run.sh -compare a.jsonl b.jsonl
//
// See benchmark/README.md for the workload and metric catalogue.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// roleEnv names the child role a re-executed benchmark process plays.
const roleEnv = "SCRAPERLAB_BENCH_ROLE"

func main() {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(childMain(role))
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// env is one invocation's settings.
type env struct {
	Seed      int64
	Seconds   float64
	Trace     bool
	Daemon    string
	Workdir   string
	TraceOut  string
	Sizes     sizes
	Exe       string
	Stdout    io.Writer
	RecordOut string
}

// cli runs the benchmark (or -compare) as args ask and returns the exit
// code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: estate-csv, hotua-jsonl or follow-clf (empty = all)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measuring window of one run in seconds")
	traced := fs.Int("trace", 0, "1 = traced single-processor run: per-layer metrics and trace.json")
	compare := fs.Bool("compare", false, "compare two -record files given as arguments (base, change)")
	record := fs.String("record", "", "append each workload's result to this JSON-lines file, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1, and -seconds must be positive")
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		fails, err := compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if fails > 0 {
			return 1
		}
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	e := env{
		Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		Daemon: ".bench_build/bin/scraperlabd", Workdir: ".bench_build/work", TraceOut: "trace.json",
		Sizes: frozenSizes, Exe: exe, Stdout: stdout, RecordOut: *record,
	}
	names := []string{*wl}
	if *wl == "" {
		names = workloadNames()
	}
	// The benchmark process is the load generator: one processor, so it
	// never outnumbers the cores the system under test is given.
	runtime.GOMAXPROCS(1)
	if err := run(e, names); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// run runs each named workload and prints its report and result line.
func run(e env, names []string) error {
	var traces []traceReport
	for _, name := range names {
		res, tr, err := runWorkload(e, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if tr != nil {
			traces = append(traces, *tr)
			if err := writeTrace(e, traces); err != nil {
				return err
			}
			if r := tr.Metrics["budget.stage_sum_ratio"]; r < 0.8 || r > 1.2 {
				return fmt.Errorf("%s: stage budget sums to %.3f of the end-to-end time, outside [0.8, 1.2]", name, r)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if e.RecordOut != "" {
			if err := appendRecord(e.RecordOut, runRecord{Workload: name, Seed: e.Seed, Trace: e.Trace, Result: res}); err != nil {
				return err
			}
		}
		fmt.Fprintf(e.Stdout, "%s\n", line)
	}
	return nil
}

// appendRecord appends one run's result line to a -record file.
func appendRecord(path string, r runRecord) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report accumulates one workload's printed metrics and its result.
type report struct {
	res   result
	lines []string
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: make(map[string]value)}}
}

// add records metric name; samples, when given, are its per-repetition
// values and their spread is printed beside it. A value that is not a
// finite number makes the run incorrect.
func (r *report) add(name string, v float64, samples []float64) {
	unit := unitOf(name)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Sprintf("%s is not a finite number", name))
		return
	}
	r.res.Metrics[name] = value{Value: v, Unit: unit}
	r.note(name, v, unit, samples)
}

// note prints a number that is not part of the result line.
func (r *report) note(name string, v float64, unit string, samples []float64) {
	line := fmt.Sprintf("  %-30s %14.6g %-10s", name, v, unit)
	if len(samples) > 1 {
		q1, q3, _ := quartiles(samples)
		line += fmt.Sprintf(" n=%d IQR %.6g (%.1f%% of median)", len(samples), q3-q1, 100*spread(samples))
	}
	r.lines = append(r.lines, line)
}

// fail marks the run incorrect and says why.
func (r *report) fail(why string) {
	r.res.Correct = false
	r.lines = append(r.lines, "  INCORRECT: "+why)
}

// count adds attempted operations and the failed ones.
func (r *report) count(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// runWorkload generates one workload's inputs, checks them, runs the
// system and returns the result (plus the trace report on traced runs).
func runWorkload(e env, name string) (result, *traceReport, error) {
	dir, err := filepath.Abs(filepath.Join(e.Workdir, name))
	if err != nil {
		return result{}, nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return result{}, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	phase := func(what string) {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s after %.1fs\n", name, what, time.Since(t0).Seconds())
	}
	rep := newReport()
	j := job{Workload: name, Seconds: e.Seconds, MinReps: e.Sizes.MinReps, Scratch: dir}
	var in inputs
	var live *followInput
	switch name {
	case wEstate:
		in, err = genEstate(dir, e.Seed, e.Sizes)
		j.Format, j.Checkpoint = "csv", true
	case wHotUA:
		in, err = genHotUA(dir, e.Seed, e.Sizes)
		j.Format, j.DecodeParallelism = "jsonl", runtime.NumCPU()
	case wFollow:
		var fi followInput
		fi, err = genFollow(dir, e.Seed, e.Sizes, e.Seconds)
		in, live = fi.inputs, &fi
		j.Format, j.Site, j.MaxSkew, j.PublishMin = "clf", "www", -time.Second, 100*time.Millisecond
	default:
		return result{}, nil, fmt.Errorf("unknown workload (want one of %s)", strings.Join(workloadNames(), ", "))
	}
	if err != nil {
		return result{}, nil, err
	}
	j.Paths = in.Paths
	if err := checkWhy(name, in.Props, in.Records, e.Sizes); err != nil {
		rep.fail(err.Error())
	}
	// Generation garbage must not sit in this process's heap beside the
	// system under test.
	runtime.GC()
	debug.FreeOSMemory()
	phase("inputs generated")

	var out *followOutcome
	if live != nil {
		o, err := driveFollow(e.Daemon, *live, e.Sizes)
		if err != nil {
			return result{}, nil, err
		}
		live.Src = nil
		out = &o
		phase("live run done")
	}
	if err := runChild(e.Exe, "ref", j, nil, &j.Ref); err != nil {
		return result{}, nil, err
	}
	phase("reference checked")
	for _, s := range j.Ref.Mismatches {
		rep.fail("reference disagrees with the batch methodology on " + s)
	}
	if out != nil {
		rep.count(in.Records+len(out.Reads), out.Missing+out.BadReads)
		if out.Missing > 0 {
			rep.fail(fmt.Sprintf("%d records never became visible", out.Missing))
		}
		if out.Digest != j.Ref.Digest {
			rep.fail("final /api/v1/results differs from a one-shot run over the tailed file")
		}
	}

	fmt.Fprintf(e.Stdout, "== %s  seed %d  %d records, %.1f MB in %d file(s)\n", name, e.Seed, in.Records, float64(in.Bytes)/1e6, len(in.Paths))
	var tr *traceReport
	switch {
	case e.Trace:
		var t traceResult
		if err := runChild(e.Exe, "trace", j, []string{"GOMAXPROCS=1"}, &t); err != nil {
			return result{}, nil, err
		}
		tr = traceRun(rep, name, e.Seed, t, out)
	case out != nil:
		followMetrics(rep, in.Records, *out)
	default:
		var o oneShotResult
		if err := runChild(e.Exe, "oneshot", j, nil, &o); err != nil {
			return result{}, nil, err
		}
		oneShotMetrics(rep, j.Ref.Digest, o)
	}
	phase("measured")
	for _, l := range rep.lines {
		fmt.Fprintln(e.Stdout, l)
	}
	if rep.res.Attempted == 0 {
		return result{}, nil, errors.New("no operation was attempted")
	}
	fmt.Fprintf(e.Stdout, "  %-30s %14.6g %-10s\n", "error_rate", float64(rep.res.Failed)/float64(rep.res.Attempted), "fraction")
	return rep.res, tr, nil
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.Name)
	}
	return n
}

// oneShotMetrics reduces the timed repetitions to the end-to-end metrics:
// medians over repetitions, each printed with its spread.
func oneShotMetrics(rep *report, refDigest string, o oneShotResult) {
	var setup, rate, cpu, rss []float64
	failed := 0
	for i, r := range o.Reps {
		if r.Err != "" || r.Digest != refDigest {
			failed++
			rep.fail(fmt.Sprintf("repetition %d: %s (digest %.12s, reference %.12s)", i, r.Err, r.Digest, refDigest))
			continue
		}
		setup = append(setup, r.Setup)
		rate = append(rate, float64(r.Records)/r.Run)
		cpu = append(cpu, r.CPU/float64(r.Records)*1e6)
		rss = append(rss, r.RSS...)
	}
	rep.count(len(o.Reps), failed)
	rep.add("setup_s", median(setup), setup)
	rep.add("records_per_s", median(rate), rate)
	rep.add("cpu_s_per_mrec", median(cpu), cpu)
	rep.add("peak_rss_mb", peakRSS(rss), nil)
	rep.add("freshness_p50_s", o.FreshP50, nil)
	rep.add("freshness_p99_s", o.FreshP99, nil)
}

// followMetrics reduces the live run to the end-to-end metrics.
func followMetrics(rep *report, records int, o followOutcome) {
	rep.add("setup_s", median(o.Setups), o.Setups)
	rep.add("records_per_s", float64(records)/o.Window, nil)
	rep.add("cpu_s_per_mrec", o.CPU/float64(records)*1e6, nil)
	rep.add("peak_rss_mb", peakRSS(o.RSS), nil)
	p50, _ := percentile(o.Fresh, 50)
	p99, ok := percentile(o.Fresh, 99)
	if !ok {
		rep.fail(fmt.Sprintf("only %d freshness samples: too few for a 99th percentile", len(o.Fresh)))
	}
	rep.add("freshness_p50_s", p50, nil)
	rep.add("freshness_p99_s", p99, nil)
	liveNotes(rep, o)
}

// liveNotes prints the live run's read path and harness health, which
// are not end-to-end metrics.
func liveNotes(rep *report, o followOutcome) {
	r50, _ := percentile(o.Reads, 50)
	r90, _ := percentile(o.Reads, 90)
	lag, _ := percentile(o.Lags, 99)
	rep.note("obsserve.read_p50_ms", r50, "ms", nil)
	rep.note("obsserve.read_p90_ms", r90, "ms", nil)
	rep.note("obsserve.sse_dropped", o.SSEDropped, "count", nil)
	rep.note("gen.lag_p99_ms", lag, "ms", nil)
}

// childMain runs one child role: the job arrives as JSON on stdin and
// the role's result leaves as JSON on stdout.
func childMain(role string) int {
	var j job
	if err := json.NewDecoder(os.Stdin).Decode(&j); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	var out any
	var err error
	switch role {
	case "ref":
		out, err = runReference(j)
	case "oneshot":
		out = runOneShot(j)
	case "trace":
		out, err = runTrace(j)
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child %s: %v\n", role, err)
		return 1
	}
	return 0
}

// runChild runs role in a fresh process of exe — so no heap, memo or
// intern state carries over between the reference, the measured runs
// and the next workload — and decodes its result into out.
func runChild(exe, role string, j job, extraEnv []string, out any) error {
	in, err := json.Marshal(j)
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(append(os.Environ(), roleEnv+"="+role), extraEnv...)
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s process: %w", role, err)
	}
	return json.Unmarshal(stdout.Bytes(), out)
}

// traceReport is one workload's entry in trace.json.
type traceReport struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	E2E1Proc   float64            `json:"e2e_1proc_s"`
	Layers     []layerShare       `json:"layers"`
	ResidualS  float64            `json:"core_residual_s"`
	Dominant   string             `json:"dominant"`
	SelfTimes  map[string]float64 `json:"self_time_s"`
	Metrics    map[string]float64 `json:"metrics"`
	Mismatches []string           `json:"mismatches,omitempty"`
	Spans      []span             `json:"spans"`
}

type layerShare struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// traceRun turns the traced child's report (plus, for the live workload,
// the live run's read path) into the per-layer metrics and the printed
// stage budget.
func traceRun(rep *report, name string, seed int64, t traceResult, live *followOutcome) *traceReport {
	rep.count(t.Attempted, t.Failed)
	for _, s := range t.Mismatches {
		rep.fail("traced run disagrees with the reference: " + s)
	}
	if live != nil {
		t.Metrics["obsserve.read_p50_ms"], _ = percentile(live.Reads, 50)
		t.Metrics["obsserve.read_p90_ms"], _ = percentile(live.Reads, 90)
		t.Metrics["obsserve.publishes"] = live.Publishes
	}
	for _, m := range perLayer {
		v, ok := t.Metrics[m.Name]
		if !ok {
			rep.fail("traced run did not report " + m.Name)
			continue
		}
		rep.add(m.Name, v, nil)
	}
	if live != nil {
		liveNotes(rep, *live)
	}
	e2e := t.Metrics["budget.e2e_1proc_s"]
	tr := &traceReport{Workload: name, Seed: seed, E2E1Proc: e2e, SelfTimes: selfTimes(t.Spans),
		Metrics: t.Metrics, Mismatches: t.Mismatches, Spans: t.Spans}
	sum, best := 0.0, -1.0
	for _, l := range t.Layers {
		tr.Layers = append(tr.Layers, layerShare{l.Name, l.Seconds, l.Seconds / e2e})
		sum += l.Seconds
		if l.Seconds > best {
			best, tr.Dominant = l.Seconds, l.Name
		}
	}
	tr.ResidualS = e2e - sum
	sort.SliceStable(tr.Layers, func(a, b int) bool { return tr.Layers[a].Seconds > tr.Layers[b].Seconds })
	rep.lines = append(rep.lines, fmt.Sprintf("  stage budget at 1 processor (e2e %.3f s):", e2e))
	for _, l := range tr.Layers {
		rep.lines = append(rep.lines, fmt.Sprintf("    %-24s %9.4f s  %5.1f%%", l.Name, l.Seconds, 100*l.Share))
	}
	rep.lines = append(rep.lines,
		fmt.Sprintf("    %-24s %9.4f s  %5.1f%%", "core (residual)", tr.ResidualS, 100*tr.ResidualS/e2e),
		fmt.Sprintf("  dominant stage: %s", tr.Dominant))
	return tr
}

// writeTrace writes every traced workload so far to trace.json.
func writeTrace(e env, traces []traceReport) error {
	b, err := json.MarshalIndent(map[string]any{"runs": traces}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.TraceOut, append(b, '\n'), 0o644)
}
