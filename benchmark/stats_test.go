package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{1, 3}, 0.5, 3.5},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want IQR 5.5 over median 5.5", got)
	}
}

// TestPercentileNeedsTenBeyond checks the reporting rule: a percentile
// counts only with at least ten samples above it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v (ok %v), want 990 with ten beyond", v, ok)
	}
	if v, ok := percentile(xs[:999], 99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %v (ok %v), want 990 with only nine beyond", v, ok)
	}
	if v, ok := percentile(xs[:100], 50); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v (ok %v), want 50", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("no samples support no percentile")
	}
	if got := peakRSS(xs[:20]); got != 20 {
		t.Errorf("peakRSS of 20 samples = %v, want their maximum", got)
	}
}

// TestSelfTimes checks self time from nested spans: children are
// subtracted once even when they overlap, and clipped to the parent.
func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", StartNS: ms(0), EndNS: ms(100)},
		{ID: 2, Parent: 1, Name: "a", StartNS: ms(10), EndNS: ms(30)},
		{ID: 3, Parent: 1, Name: "b", StartNS: ms(20), EndNS: ms(50)},
		{ID: 4, Parent: 1, Name: "c", StartNS: ms(60), EndNS: ms(70)},
		{ID: 5, Parent: 2, Name: "a.inner", StartNS: ms(15), EndNS: ms(20)},
		{ID: 6, Parent: 1, Name: "c", StartNS: ms(90), EndNS: ms(120)},
	}
	want := map[string]float64{
		// 100 − ([10,50] ∪ [60,70] ∪ [90,100]) = 100 − 60
		"root":    0.040,
		"a":       0.015,
		"b":       0.030,
		"c":       0.040, // 10 + 30: a child's own span is not clipped
		"a.inner": 0.005,
	}
	got := selfTimes(spans)
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

// TestTracerSpans checks begin/end bookkeeping and parent links.
func TestTracerSpans(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("root", 0)
	child := tr.begin("child", root)
	if d := tr.end(child); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Workload != "w" || s[1].EndNS < s[1].StartNS {
		t.Fatalf("spans = %+v", s)
	}
}
