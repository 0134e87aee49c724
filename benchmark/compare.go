package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last: whether every output was
// correct, how many operations were attempted and failed, and the
// metrics.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runRecord is one line of a -record file: a run's result and what
// produced it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// spec is the part of BENCHMARK.json -compare reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// readRecords loads the untraced runs of a -record file, grouped by
// workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

// verdict applies one metric's bound to two sets of runs. The change
// passes when its median is worse than the base's by no more than the
// bound and fails when worse by more — unless either side's own spread
// (interquartile range over median) exceeds the bound, in which case
// the comparison is unresolved, or a pass when every run of b beats
// every run of a.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	if len(a) == 0 || len(b) == 0 {
		return "missing", 0
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = (ma - mb) / ma
	}
	if max(spread(a), spread(b)) > bound {
		if allBetter(a, b, better) {
			return "pass", worse
		}
		return "unresolved", worse
	}
	if worse > bound {
		return "fail", worse
	}
	return "pass", worse
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareFiles prints a verdict per (workload, end-to-end metric) for
// run sets a (base) and b (change) and returns how many failed.
func compareFiles(specPath, a, b string, w io.Writer) (int, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return 0, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, fmt.Errorf("%s: %w", specPath, err)
	}
	ra, err := readRecords(a)
	if err != nil {
		return 0, err
	}
	rb, err := readRecords(b)
	if err != nil {
		return 0, err
	}
	var names []string
	for wl := range ra {
		names = append(names, wl)
	}
	for wl := range rb {
		if ra[wl] == nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	fails := 0
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %8s %8s  %s\n", "workload", "metric", "base", "change", "worse", "bound", "verdict")
	for _, wl := range names {
		for _, m := range s.EndToEnd {
			if m.Bound == nil {
				return 0, fmt.Errorf("%s: end-to-end metric %s has no bound", specPath, m.Name)
			}
			va, vb := ra[wl][m.Name], rb[wl][m.Name]
			v, worse := verdict(va, vb, m.Better, *m.Bound)
			if v == "fail" {
				fails++
			}
			fmt.Fprintf(w, "%-12s %-16s %14.6g %14.6g %7.1f%% %7.0f%%  %s\n",
				wl, m.Name, median(va), median(vb), 100*worse, 100**m.Bound, v)
		}
	}
	return fails, nil
}
