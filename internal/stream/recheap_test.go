package stream

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/weblog"
)

// refRecHeap is the reorder heap before keys and slab: whole records in
// the heap array, ordered with time.Time's own Equal and Before.
type refRecHeap []refSeqRec

type refSeqRec struct {
	rec weblog.Record
	seq uint64
}

func (h refRecHeap) less(i, j int) bool {
	if !h[i].rec.Time.Equal(h[j].rec.Time) {
		return h[i].rec.Time.Before(h[j].rec.Time)
	}
	return h[i].seq < h[j].seq
}

func (h *refRecHeap) push(sr refSeqRec) {
	*h = append(*h, sr)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *refRecHeap) pop() refSeqRec {
	old := *h
	n := len(old)
	top := old[0]
	old[0] = old[n-1]
	*h = old[:n-1]
	i, end := 0, n-1
	for {
		left := 2*i + 1
		if left >= end {
			break
		}
		child := left
		if right := left + 1; right < end && old.less(right, left) {
			child = right
		}
		if !old.less(child, i) {
			break
		}
		old[i], old[child] = old[child], old[i]
		i = child
	}
	return top
}

// TestRecHeapMatchesReference runs the keyed heap and the reference heap
// over the same random pushes and pops and requires the same heap layout
// (which checkpoints capture verbatim) and the same pops. Times collide
// often and sequence numbers repeat, so full ties occur too. Some rounds
// mix in times the key cannot order on its own: times with a monotonic
// clock reading, times far outside the Unix range, and other zones.
func TestRecHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	mono := time.Now()
	zone := time.FixedZone("X", 3600)
	stamp := func(kind int) time.Time {
		d := time.Duration(rng.Intn(40)) * 250 * time.Millisecond
		switch {
		case kind == 1 && rng.Intn(2) == 0:
			return mono.Add(d)
		case kind == 2 && rng.Intn(50) == 0:
			return time.Unix(1<<62+rng.Int63n(2), 0)
		case kind == 3:
			return base.Add(d).In(zone)
		}
		return base.Add(d)
	}
	same := func(h *recHeap, ref refRecHeap) bool {
		if h.len() != len(ref) {
			return false
		}
		for i := range ref {
			rec, seq := h.at(i)
			if rec.Status != ref[i].rec.Status || seq != ref[i].seq {
				return false
			}
		}
		return true
	}
	for round := 0; round < 120; round++ {
		kind := round % 4
		var h recHeap
		var ref refRecHeap
		for op := 0; op < 3000; op++ {
			if len(ref) > 0 && rng.Intn(3) == 0 {
				rec, seq := h.pop()
				want := ref.pop()
				if rec.Status != want.rec.Status || seq != want.seq || !rec.Time.Equal(want.rec.Time) {
					t.Fatalf("round %d op %d: pop = (%d, %d), reference (%d, %d)", round, op, rec.Status, seq, want.rec.Status, want.seq)
				}
				continue
			}
			rec := weblog.Record{Time: stamp(kind), Status: op, UserAgent: "ua"}
			seq := uint64(rng.Intn(64))
			h.push(&rec, seq)
			ref.push(refSeqRec{rec, seq})
			if op%200 == 0 && !same(&h, ref) {
				t.Fatalf("round %d op %d: heap layout diverged from the reference", round, op)
			}
		}
		for len(ref) > 0 {
			rec, seq := h.pop()
			if want := ref.pop(); rec.Status != want.rec.Status || seq != want.seq {
				t.Fatalf("round %d drain: pop = (%d, %d), reference (%d, %d)", round, rec.Status, seq, want.rec.Status, want.seq)
			}
		}
		for _, chunk := range h.slab {
			for i := range chunk {
				if chunk[i].UserAgent != "" {
					t.Fatalf("round %d: a vacated slab slot still holds a record", round)
				}
			}
		}
	}
}
