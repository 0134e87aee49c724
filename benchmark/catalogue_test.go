package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// TestBenchmarkJSONMirrorsCatalogue checks that the committed
// BENCHMARK.json declares exactly the workloads and metrics this
// package reports, and stays inside the declaration's limits.
func TestBenchmarkJSONMirrorsCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !equalStrings(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
	var s struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if !equalStrings(s.Command, []string{"bash", "benchmark/run.sh"}) || !equalStrings(s.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", s.Command, s.Paths)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}

	if len(s.Workloads) != len(workloads) || len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Fatalf("%d workloads declared, %d in the catalogue", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %+v, catalogue %+v", i, w, workloads[i])
		}
	}

	check := func(kind string, decl []specMetric, cat []metric, bounded bool) {
		if len(decl) != len(cat) {
			t.Fatalf("%s: %d declared, %d in the catalogue", kind, len(decl), len(cat))
		}
		for i, d := range decl {
			c := cat[i]
			checkName(d.Name)
			if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %s: unit %q better %q", kind, d.Name, d.Unit, d.Better)
			}
			if d.Name != c.Name || d.Unit != c.Unit || d.Better != c.Better {
				t.Errorf("%s %d: declared %+v, catalogue %+v", kind, i, d, c)
			}
			switch {
			case !bounded && d.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			case bounded && (d.Bound == nil || *d.Bound != c.Bound || *d.Bound <= 0 || *d.Bound > 0.25):
				t.Errorf("%s %s: bound %v, catalogue %v", kind, d.Name, d.Bound, c.Bound)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd, true)
	check("per_layer", s.PerLayer, perLayer, false)

	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Fatalf("setup_s must lead the end-to-end metrics: %+v", endToEnd[0])
	}
	for _, m := range endToEnd[1:] {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
