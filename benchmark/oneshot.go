package main

import (
	"context"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
)

// repResult is one timed repetition of a one-shot workload: an
// observatory built over the job's files and run to completion.
type repResult struct {
	// Setup is the wall time of core.NewObservatory, Run that of
	// Observatory.Run (final publish and final checkpoint included) and
	// CPU this process's CPU time over Run, all in seconds.
	Setup, Run, CPU float64
	// Records counts records decoded: folded plus dropped by the keep
	// filter.
	Records uint64
	Digest  string
	Err     string
	// RSS holds this process's resident set size sampled during Run (MB).
	RSS []float64
	// folds is the visibility curve of the run (not reported).
	folds *foldSampler
}

// oneShotResult is the timed child's report. FreshP50 and FreshP99 are
// percentiles of per-record freshness pooled over every repetition: a
// record's freshness is the time from its run's start (when the whole
// input is due) until it was folded into analyzer state, i.e. visible to
// any snapshot taken from then on.
type oneShotResult struct {
	Reps               []repResult
	FreshP50, FreshP99 float64
}

// foldSampler records the pipeline's folded+dropped count every
// millisecond while a one-shot run ingests: the curve of how much of the
// input is visible how soon.
type foldSampler struct {
	stop, done chan struct{}
	at         []time.Duration
	seen       []uint64
	// total and end are the run's record count and length, set once it
	// finished.
	total uint64
	end   time.Duration
}

func sampleFolds(m *stream.Metrics, start time.Time) *foldSampler {
	s := &foldSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				st := m.Stats()
				s.at = append(s.at, now.Sub(start))
				s.seen = append(s.seen, st.Folded+st.Dropped)
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it.
func (s *foldSampler) finish() {
	close(s.stop)
	<-s.done
}

// visibleAt is how many records the run had made visible by t: the
// last sample at or before t, and every record once the run ended.
func (s *foldSampler) visibleAt(t time.Duration) uint64 {
	if t >= s.end {
		return s.total
	}
	i := sort.Search(len(s.at), func(i int) bool { return s.at[i] > t })
	if i == 0 {
		return 0
	}
	return min(s.seen[i-1], s.total)
}

// pooledFreshness is the time by which the share q of all records of all
// runs was visible: the q-quantile of per-record freshness pooled over
// the runs.
func pooledFreshness(runs []*foldSampler, q float64) float64 {
	var total uint64
	var hi time.Duration
	for _, r := range runs {
		total += r.total
		hi = max(hi, r.end)
	}
	need := uint64(math.Ceil(q * float64(total)))
	visible := func(t time.Duration) bool {
		var n uint64
		for _, r := range runs {
			n += r.visibleAt(t)
		}
		return n >= need
	}
	lo := time.Duration(0)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if visible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo.Seconds()
}

// timedRep builds and runs one observatory over the job's inputs. The
// caller closes the returned observatory (nil when r.Err is set).
func timedRep(j job, rep int, sample bool) (repResult, *core.Observatory) {
	var r repResult
	dir, err := j.ckptDir(rep)
	if err != nil {
		r.Err = err.Error()
		return r, nil
	}
	t0 := time.Now()
	o, err := core.NewObservatory(j.observatoryOptions(dir))
	r.Setup = time.Since(t0).Seconds()
	if err != nil {
		r.Err = err.Error()
		return r, nil
	}
	cpu0 := selfCPU()
	start := time.Now()
	var fs *foldSampler
	var rs *rssSampler
	if sample {
		fs = sampleFolds(o.Metrics(), start)
		rs = sampleRSS(0)
	}
	res, err := o.Run(context.Background())
	run := time.Since(start)
	r.Run = run.Seconds()
	r.CPU = (selfCPU() - cpu0).Seconds()
	if fs != nil {
		fs.finish()
		r.RSS = rs.finish()
	}
	if dir != "" {
		os.RemoveAll(dir)
	}
	if err != nil {
		r.Err = err.Error()
		return r, o
	}
	r.Records = res.Records + res.Dropped
	if fs != nil {
		fs.total, fs.end = r.Records, run
		r.folds = fs
	}
	if r.Digest, err = digestJSON(res.JSON()); err != nil {
		r.Err = err.Error()
	}
	return r, o
}

// runOneShot repeats timedRep back to back until the job's measuring
// window has passed and at least MinReps repetitions ran. A collection
// between repetitions keeps one repetition's garbage out of the next.
func runOneShot(j job) oneShotResult {
	var out oneShotResult
	var curves []*foldSampler
	deadline := time.Now().Add(time.Duration(j.Seconds * float64(time.Second)))
	for rep := 0; rep < j.MinReps || time.Now().Before(deadline); rep++ {
		runtime.GC()
		r, o := timedRep(j, rep, true)
		if o != nil {
			o.Close()
		}
		if r.folds != nil {
			curves = append(curves, r.folds)
		}
		out.Reps = append(out.Reps, r)
	}
	if len(curves) > 0 {
		out.FreshP50 = pooledFreshness(curves, 0.50)
		out.FreshP99 = pooledFreshness(curves, 0.99)
	}
	return out
}
