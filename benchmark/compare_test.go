package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", tight, tight, "lower", "pass"},
		{"slower within bound", tight, []float64{105, 106, 104, 105, 105}, "lower", "pass"},
		{"slower beyond bound", tight, []float64{120, 121, 119, 120, 120}, "lower", "fail"},
		{"throughput drop beyond bound", tight, []float64{80, 81, 79, 80, 80}, "higher", "fail"},
		{"throughput gain", tight, []float64{130, 131, 129, 130, 130}, "higher", "pass"},
		{"too noisy to tell", tight, []float64{80, 120, 100, 140, 60}, "lower", "unresolved"},
		{"noisy but every run better", []float64{100, 150, 120, 180, 110}, []float64{50, 60, 55, 58, 52}, "lower", "pass"},
		{"no runs", nil, tight, "lower", "missing"},
	} {
		if got, _ := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles runs -compare over two record files against the
// committed BENCHMARK.json bounds.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rps ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range rps {
			ms := map[string]value{}
			for _, m := range endToEnd {
				ms[m.Name] = value{Value: 1, Unit: m.Unit}
			}
			ms["records_per_s"] = value{Value: v, Unit: "rec/s"}
			if err := appendRecord(path, runRecord{Workload: wHotUA, Seed: 1, Result: result{Correct: true, Attempted: 1, Metrics: ms}}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 100, 101, 99, 100)
	var out bytes.Buffer
	fails, err := compareFiles("../BENCHMARK.json", base, write("same.jsonl", 100, 100, 101, 99), &out)
	if err != nil || fails != 0 {
		t.Fatalf("identical sets: %d failures, %v\n%s", fails, err, &out)
	}
	out.Reset()
	fails, err = compareFiles("../BENCHMARK.json", base, write("slow.jsonl", 50, 51, 49, 50), &out)
	if err != nil || fails != 1 || !strings.Contains(out.String(), "fail") {
		t.Fatalf("halved throughput: %d failures, %v\n%s", fails, err, &out)
	}
}
