package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestFreshnessAccounting covers the SSE-frame matching: a frame
// covering several appends at once (coalesced), a count that goes
// backwards (ignored), and records no frame covers (counted missing).
func TestFreshnessAccounting(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	ticks := []appendTick{{Due: 0, Lines: 2}, {Due: ms(10), Lines: 3}, {Due: ms(20), Lines: 1}}
	frames := []frame{
		{At: -ms(5), Covered: 0}, // the opening snapshot, before the run
		{At: ms(40), Covered: 4}, // coalesced: both ticks' first records
		{At: ms(60), Covered: 3}, // stale count, never expected
		{At: ms(80), Covered: 5},
	}
	lat, missing := freshness(ticks, frames)
	want := []float64{0.040, 0.040, 0.030, 0.030, 0.070}
	if missing != 1 || len(lat) != len(want) {
		t.Fatalf("got %v latencies, %d missing; want %v and 1 missing", lat, missing, want)
	}
	for i := range want {
		if math.Abs(lat[i]-want[i]) > 1e-9 {
			t.Fatalf("latencies %v, want %v", lat, want)
		}
	}
}

// TestCoveredCount reads the top-level folded+dropped count of a frame
// without being fooled by the nested analyzer views, whose own "records"
// keys come first in the server's sorted encoding.
func TestCoveredCount(t *testing.T) {
	for _, c := range []struct {
		payload string
		want    uint64
		ok      bool
	}{
		{`{"at":"2025-03-01T00:00:00Z","changed":{"compliance":{"records":999,"tuples":1}},"done":false,"dropped":7,"records":93,"seq":4,"watermark":"2025-03-01T00:00:00Z"}`, 100, true},
		{`{"analyzers":{"session":{"records":5}},"at":"2025-03-01T00:00:00Z","done":false,"dropped":0,"records":12,"seq":1}`, 12, true},
		{`{"records":12}`, 0, false},
		{`{"dropped":x,"records":1}`, 0, false},
	} {
		got, ok := coveredCount([]byte(c.payload))
		if got != c.want || ok != c.ok {
			t.Errorf("coveredCount(%s) = %d, %v; want %d, %v", c.payload, got, ok, c.want, c.ok)
		}
	}
}

// TestFollowSchedule checks that the append schedule is time-ordered,
// sums to its baseline plus bursts, and spreads burst phases.
func TestFollowSchedule(t *testing.T) {
	fi, err := genFollow(t.TempDir(), 3, tinySizes, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	var phases []time.Duration
	for i, tk := range fi.Ticks {
		if i > 0 && tk.Due < fi.Ticks[i-1].Due {
			t.Fatalf("tick %d due %v before tick %d", i, tk.Due, i-1)
		}
		if i > 0 && tk.Off != fi.Ticks[i-1].End {
			t.Fatalf("tick %d starts at byte %d, previous ended at %d", i, tk.Off, fi.Ticks[i-1].End)
		}
		total += tk.Lines
		if tk.Lines == tinySizes.FollowBurst {
			phases = append(phases, tk.Due%tinySizes.FollowBurstEvery)
		}
	}
	if total != fi.Records || fi.Ticks[len(fi.Ticks)-1].End != len(fi.Src) {
		t.Fatalf("schedule appends %d records / %d bytes, source has %d / %d", total, fi.Ticks[len(fi.Ticks)-1].End, fi.Records, len(fi.Src))
	}
	if len(phases) != 4 {
		t.Fatalf("%d bursts in 4s at one per second, want 4", len(phases))
	}
	seen := map[time.Duration]bool{}
	for _, p := range phases {
		seen[p] = true
	}
	if len(seen) != len(phases) {
		t.Fatalf("burst phases repeat: %v", phases)
	}
	again, err := genFollow(t.TempDir(), 3, tinySizes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fi.Ticks, again.Ticks) || string(fi.Src) != string(again.Src) {
		t.Fatal("the same seed gave a different schedule or source")
	}
}
