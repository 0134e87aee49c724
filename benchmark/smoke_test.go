package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child process:
// runChild re-executes os.Executable with the role in the environment.
func TestMain(m *testing.M) {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(childMain(role))
	}
	os.Exit(m.Run())
}

// tinySizes shrinks every workload so the whole harness runs in seconds.
var tinySizes = sizes{
	EstateScale:      0.02,
	HotRecords:       20_000,
	FollowRate:       2_000,
	FollowBurst:      4_000,
	FollowBurstEvery: time.Second,
	MinReps:          2,
	SetupLaunches:    3,
}

// buildDaemon compiles cmd/scraperlabd for the live workload.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "scraperlabd")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/scraperlabd").CombinedOutput()
	if err != nil {
		t.Fatalf("building scraperlabd: %v\n%s", err, out)
	}
	return bin
}

func tinyEnv(t *testing.T, trace bool) (env, *bytes.Buffer) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	dir := t.TempDir()
	return env{
		Seed: 7, Seconds: 1, Trace: trace,
		Daemon: buildDaemon(t), Workdir: filepath.Join(dir, "work"), TraceOut: filepath.Join(dir, "trace.json"),
		Sizes: tinySizes, Exe: exe, Stdout: &stdout,
	}, &stdout
}

// lastResult decodes the result line a run printed last.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestSmokeAllWorkloads runs every workload end to end at a tiny size:
// generation, the reference and its batch check, the measured runs,
// and the result line with every end-to-end metric.
func TestSmokeAllWorkloads(t *testing.T) {
	e, stdout := tinyEnv(t, false)
	for _, w := range workloads {
		stdout.Reset()
		if err := run(e, []string{w.Name}); err != nil {
			t.Fatalf("%s: %v\n%s", w.Name, err, stdout)
		}
		r := lastResult(t, stdout.String())
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Fatalf("%s: result %+v\n%s", w.Name, r, stdout)
		}
		for _, m := range endToEnd {
			v, ok := r.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || v.Value <= 0 {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w.Name, m.Name, v, m.Unit)
			}
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want exactly the %d end-to-end ones", w.Name, len(r.Metrics), len(endToEnd))
		}
	}
}

// TestSmokeTrace runs the traced sequence on the tiny estate and checks
// it reports every per-layer metric and writes trace.json with spans.
func TestSmokeTrace(t *testing.T) {
	e, stdout := tinyEnv(t, true)
	res, tr, err := runWorkload(e, wEstate)
	if err != nil {
		t.Fatalf("%v\n%s", err, stdout)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("result %+v\n%s", res, stdout)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("traced run lacks %s", m.Name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want exactly the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	if tr.Dominant == "" || len(tr.Spans) == 0 {
		t.Fatalf("trace report has no dominant stage or spans: %+v", tr)
	}
	if err := writeTrace(e, []traceReport{*tr}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(e.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []traceReport `json:"runs"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.Runs) != 1 || len(doc.Runs[0].Spans) == 0 {
		t.Fatalf("trace.json does not round-trip: %v", err)
	}
}
