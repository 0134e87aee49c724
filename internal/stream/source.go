// source.go is the multi-source fan-in half of the parallel ingestion
// front-end: RunSources runs one decoder goroutine per Source (per-site
// log file, chunk of a large file, or followed stream), each building
// pooled record batches and dispatching them straight to the shard
// channels — no single serialized dispatcher goroutine on the hot path.
//
// Determinism under fan-in rests on two mechanisms (see DESIGN.md,
// "Parallel ingestion"):
//
//   - per-source sequence numbers: source i stamps its k-th kept record
//     with seq = i<<sourceSeqShift | k, so the (time, seq) order every
//     shard folds in equals a stable sort by time of the concatenated
//     sources — the batch reference order — regardless of goroutine
//     interleaving;
//   - a per-source low-watermark merged into a global min-watermark:
//     each source publishes a promise "no record I deliver from now on
//     is older than L", batches carry the minimum promise across sources
//     at send time, and shards release reorder-buffered records only
//     strictly below the highest stamp seen. One slow source therefore
//     holds every shard's release back, which is exactly what keeps a
//     record from a lagging site from ever arriving late.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/weblog"
)

// Source is one independently decoded input of a fan-in run. Build them
// by hand over any Decoder, or with ChunkSources to split a single large
// file at record boundaries.
type Source struct {
	// Name labels the source in errors ("logs/site-a.log", "chunk 3/8").
	Name string
	// Dec yields the source's records. Each source's decoder runs on its
	// own goroutine, so decoders need not be safe for concurrent use —
	// but distinct sources must not share one decoder.
	Dec Decoder
	// Close, if non-nil, is called exactly once when the run is done with
	// the source (normally or on error). Its error is reported only if
	// the run itself succeeded.
	Close func() error
	// BaseOffset is the absolute byte offset in the underlying input at
	// which Dec starts reading — zero for a fresh input, the restored
	// SourceCheckpoint.Offset (minus any replayed CSV header) for a
	// resumed one — so checkpoints record BaseOffset + the decoder's own
	// consumed-byte count as the absolute resume point.
	BaseOffset int64
}

// sourceSeqShift positions the source index in the high bits of a fan-in
// sequence number: seq = srcIdx<<sourceSeqShift | localSeq. Sequence
// order across sources is therefore (source index, position) — the order
// records hold in the concatenation of the sources — which is how
// min-by-seq choices and equal-timestamp fold order stay deterministic
// under nondeterministic goroutine interleaving.
const sourceSeqShift = 44

// maxSources bounds a fan-in run so source indexes fit above the shift.
const maxSources = 1 << (64 - sourceSeqShift)

// unstampedMark marks a batch that carries no watermark promise (the
// single-dispatcher Ingest path); shards then fall back to the per-shard
// maxSeen watermark.
const unstampedMark = math.MinInt64

// noStampMark marks a fan-in batch sent before every source has
// published a low-watermark. Unlike unstampedMark it must NOT fall back
// to the per-shard maxSeen heuristic — cross-source disorder is
// unbounded, so the shard buffers everything until a real stamp arrives
// (or the run closes and drains in order).
const noStampMark = math.MinInt64 + 1

// minMarkNano/maxMarkNano clamp watermark arithmetic to timestamps
// time.Time.UnixNano can represent (roughly years 1678–2262): outside
// that range UnixNano's result is undefined and one absurd-year record
// would wrap the low-watermark and release shards wildly early. Clamped
// records still reorder among normal traffic exactly (the heap and
// release comparisons use time.Time, not nanos); only mutual ordering
// WITHIN a group of same-era out-of-range timestamps arriving on
// different sources is approximate. Halving keeps the −MaxSkew
// subtraction and the sentinel values well clear of overflow.
const (
	minMarkNano = math.MinInt64 / 2
	maxMarkNano = math.MaxInt64 / 2
)

// minMarkTime/maxMarkTime are the clamp bounds as instants, hoisted off
// the per-record path.
var (
	minMarkTime = time.Unix(0, minMarkNano)
	maxMarkTime = time.Unix(0, maxMarkNano)
)

// markNano is rec-time → watermark nanos with out-of-range clamping.
func markNano(ts time.Time) int64 {
	// time.Time.Before/After are exact for any year; bound first, then
	// convert only in-range values.
	switch {
	case ts.Before(minMarkTime):
		return minMarkNano
	case ts.After(maxMarkTime):
		return maxMarkNano
	default:
		return ts.UnixNano()
	}
}

// lwSlot is one source's published low-watermark, padded out to its own
// cache line. Every runner's send path scans ALL slots (stamp) while every
// runner's publishLW stores its own — with plain adjacent atomics those
// accesses false-share cache lines, and each store invalidates the line
// for every peer's next scan. Padding keeps one runner's publication
// traffic off its neighbors' lines; the pointer handed to the metrics
// watermark gauge still targets the atomic itself.
type lwSlot struct {
	v atomic.Int64
	_ [64 - 8]byte
}

// sourceRunner is one fan-in decoder goroutine's state: its private shard
// router (pending batches + event-time floors backing the published
// low-watermark) and its per-source sequence counter.
type sourceRunner struct {
	p    *Pipeline
	idx  int
	src  Source
	keep func(*weblog.Record) bool
	// mDecoded is this source's decode counter, nil when the pipeline
	// runs uninstrumented; resolved once so the decode loop only pays
	// the atomic add.
	mDecoded *obs.Counter

	// rt routes this source's records to per-shard pending batches; it is
	// owned by the runner goroutine exclusively (the capture gate only
	// touches it through park, on this same goroutine), so routing and
	// batch appends need no locking at all.
	rt *shardRouter
	// decodeHW is the highest event time decoded so far (unix nanos);
	// bounded-disorder input means every future record of this source is
	// at or above decodeHW − MaxSkew.
	decodeHW int64
	localSeq uint64

	// lw is this source's published low-watermark (unix nanos): a
	// monotone promise that every record the source has yet to deliver
	// to a shard channel has time >= lw. It advances only after a
	// channel send completes, so a batch blocked on backpressure is
	// still covered by it.
	lw *atomic.Int64
	// lws is the whole run's registry, one padded slot per source, for
	// the global min-watermark stamped onto outgoing batches.
	lws []lwSlot

	// flushReq and stop are set by the run's watcher goroutine (the
	// FlushInterval ticker and context cancellation respectively) and
	// polled with one cheap atomic load per record, so a source
	// trickling records still flushes its pending batches — and unpins
	// the global min-watermark — within the flush interval, and a
	// canceled run stops between any two records rather than every 256.
	flushReq atomic.Bool
	stop     atomic.Bool
}

// RunSources ingests every source concurrently — one decoder goroutine
// per source, all feeding the pipeline's shard workers — then closes the
// pipeline and returns the final snapshot. The snapshot is deterministic:
// byte-identical to ingesting the concatenated sources sorted stably by
// event time, provided each source's own timestamp disorder stays within
// MaxSkew (sources may lag each other arbitrarily — the min-watermark
// merge absorbs cross-source skew of any size). On a decode error or
// context cancellation the remaining sources stop and the snapshot of
// everything ingested so far is returned alongside the error.
//
// RunSources must not be mixed with Ingest or Run on the same pipeline,
// and requires reordering (MaxSkew >= 0) when run with more than one
// source. Options.NewKeep supplies each source goroutine its own filter;
// with only Options.Keep set, that single func is shared across source
// goroutines and must be safe for concurrent use. Cancellation is
// observed between records: a decoder that parks indefinitely inside
// Next (a followed stream with no new data) should wrap its reader in a
// TailReader bound to the same ctx, which turns cancellation into a
// clean EOF the runner can act on.
func (p *Pipeline) RunSources(ctx context.Context, sources []Source) (*Results, error) {
	if err := p.checkSources(sources); err != nil {
		p.Close()
		closeSources(sources) // the close-once contract holds on errors too
		return p.Snapshot(), err
	}
	// The pipeline's background flusher only serves Ingest-path pending
	// batches, which a fan-in run never populates — the watcher below
	// flushes the sources' own pendings on the same cadence instead.
	p.stopFlusher()
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	lws := make([]lwSlot, len(sources))
	for i := range lws {
		lws[i].v.Store(math.MinInt64)
	}
	errs := make([]error, len(sources))
	runners := make([]*sourceRunner, len(sources))
	var wg sync.WaitGroup
	// Install the capture gate's source table under captureMu, so a
	// checkpoint capture racing the start of the run either completes
	// before any runner decodes or sees every runner through the gate.
	p.captureMu.Lock()
	p.gate.init()
	p.gate.mu.Lock()
	p.gate.srcCkpts = make([]SourceCheckpoint, len(sources))
	for i := range sources {
		p.gate.srcCkpts[i] = SourceCheckpoint{Name: sources[i].Name, Offset: -1, DecodeHW: math.MinInt64}
	}
	p.gate.mu.Unlock()
	restored := p.restored
	p.captureMu.Unlock()
	if restored != nil && len(restored) != len(sources) {
		p.Close()
		closeSources(sources)
		return p.Snapshot(), fmt.Errorf("stream: RunSources: restored checkpoint has %d sources, run has %d", len(restored), len(sources))
	}
	for i := range sources {
		r := &sourceRunner{
			p:        p,
			idx:      i,
			src:      sources[i],
			rt:       newShardRouter(p, true),
			decodeHW: math.MinInt64,
			lw:       &lws[i].v,
			lws:      lws,
		}
		if restored != nil {
			// Source order determines sequence numbering (and so every
			// min-by-seq analyzer choice); a renamed or reordered source
			// list would silently break restore parity.
			if restored[i].Name != sources[i].Name {
				p.Close()
				closeSources(sources)
				return p.Snapshot(), fmt.Errorf("stream: RunSources: restored source %d is %q, run has %q (sources must keep their order across a restore)", i, restored[i].Name, sources[i].Name)
			}
			r.localSeq = restored[i].LocalSeq
			r.decodeHW = restored[i].DecodeHW
		}
		r.keep = p.opts.Keep
		if p.opts.NewKeep != nil {
			r.keep = p.opts.NewKeep()
		}
		if m := p.metrics; m != nil {
			r.mDecoded = m.sourceCounter(sources[i].Name)
			m.bindSourceWatermark(sources[i].Name, &lws[i].v)
		}
		runners[i] = r
		wg.Add(1)
		p.gate.mu.Lock()
		p.gate.active++
		p.gate.mu.Unlock()
		go func(i int) {
			defer wg.Done()
			errs[i] = r.run(runCtx)
			r.leaveGate(errs[i])
			if errs[i] != nil {
				cancel() // stop the other sources; partial results survive
			}
		}(i)
	}
	// The watcher always ticks, even when the caller disabled background
	// flushing (FlushInterval < 0): for fan-in, source-level flushing is
	// not just snapshot freshness — it is what lets a source that pends
	// little (or whose records are all filtered) keep publishing its
	// low-watermark, without which the min-stamp pins at its floor and
	// every shard buffers toward O(input). Flush timing never changes
	// results.
	flushEvery := p.opts.FlushInterval
	if flushEvery <= 0 {
		flushEvery = DefaultFlushInterval
	}
	watcherDone := make(chan struct{})
	go watchSources(runCtx, flushEvery, runners, watcherDone)
	wg.Wait()
	cancel() // release the watcher even on a clean finish
	<-watcherDone
	p.Close()

	runErr := firstSourceError(errs, ctx)
	if err := closeSources(sources); err != nil && runErr == nil {
		runErr = err
	}
	return p.Snapshot(), runErr
}

// closeSources runs every source's Close hook, returning the first
// failure.
func closeSources(sources []Source) error {
	var first error
	for i := range sources {
		if c := sources[i].Close; c != nil {
			if err := c(); err != nil && first == nil {
				first = fmt.Errorf("stream: closing source %s: %w", sources[i].Name, err)
			}
		}
	}
	return first
}

// checkSources validates a fan-in configuration before any goroutine
// starts.
func (p *Pipeline) checkSources(sources []Source) error {
	if len(sources) == 0 {
		return fmt.Errorf("stream: RunSources: no sources")
	}
	if len(sources) > maxSources {
		return fmt.Errorf("stream: RunSources: %d sources exceeds the %d maximum", len(sources), maxSources)
	}
	if p.opts.MaxSkew < 0 && len(sources) > 1 {
		return fmt.Errorf("stream: RunSources: reordering is disabled (MaxSkew < 0), which cannot merge %d sources deterministically", len(sources))
	}
	return nil
}

// firstSourceError picks the run's reported error: the first real decode
// or send failure in source order — deterministic even though failures
// race — falling back to the caller's cancellation. Cancellation is
// matched with errors.Is, so a sibling's wrapped cancellation artifact
// (a ctx-aware reader failing after another source's genuine error
// triggered the cancel) never outranks the error that caused it.
func firstSourceError(errs []error, ctx context.Context) error {
	for _, e := range errs {
		if e != nil && !errors.Is(e, context.Canceled) {
			return e
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// watchSources is one goroutine per fan-in run: it raises every
// runner's flush flag each FlushInterval and their stop flags on
// cancellation, so the runners themselves only ever pay an atomic load
// per record. A runner blocked inside its decoder's Next cannot observe
// either flag until the call returns — sources that may park waiting
// for data (followed streams) should wrap their reader in a TailReader
// bound to the same context, which turns cancellation into EOF.
func watchSources(ctx context.Context, flushEvery time.Duration, runners []*sourceRunner, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(flushEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			for _, r := range runners {
				r.stop.Store(true)
			}
			return
		case <-t.C:
			for _, r := range runners {
				r.flushReq.Store(true)
			}
		}
	}
}

// checkpointNow reads the runner's resume point: the absolute byte
// offset just past the last decoded record (-1 when the decoder does
// not track offsets), the CSV header length for header replay, and the
// counters a resumed runner must be seeded with. Only the runner's own
// goroutine (or the capture gate, with the runner parked) may call it.
func (r *sourceRunner) checkpointNow() SourceCheckpoint {
	ck := SourceCheckpoint{
		Name:     r.src.Name,
		Offset:   -1,
		LocalSeq: r.localSeq,
		DecodeHW: r.decodeHW,
	}
	if ot, ok := r.src.Dec.(OffsetTracker); ok {
		ck.Offset = r.src.BaseOffset + ot.Offset()
	}
	if hl, ok := r.src.Dec.(interface{ HeaderLen() int64 }); ok {
		ck.HeaderLen = hl.HeaderLen()
	}
	return ck
}

// park services a checkpoint capture: flush every pending batch to the
// shard channels (the workers are still draining, so this cannot
// deadlock), record the resume point, and wait at this record boundary
// until the capture completes. The gate check sits BEFORE Next in the
// run loop — after a record is decoded the offset is already past it,
// so parking post-decode would lose that record on restore.
func (r *sourceRunner) park(ctx context.Context) error {
	if err := r.flushAll(ctx); err != nil {
		return err
	}
	g := &r.p.gate
	g.mu.Lock()
	g.srcCkpts[r.idx] = r.checkpointNow()
	g.parked++
	g.cond.Broadcast()
	for g.want.Load() {
		g.cond.Wait()
	}
	g.parked--
	g.mu.Unlock()
	return nil
}

// leaveGate retires the runner from the capture gate. On a clean EOF it
// records the final resume point, so captures taken after this source
// finishes (the end-of-run checkpoint especially) still carry every
// source's exact position. On error or cancellation it invalidates the
// entry instead: an aborted runner may have decoded records it never
// dispatched (the in-flight batch is forfeit on cancel), so its decoder
// offset overstates the folded state — recording it would make a
// post-cancel capture silently skip those records on restore. The
// invalid offset makes any such capture fail loudly.
func (r *sourceRunner) leaveGate(runErr error) {
	g := &r.p.gate
	g.mu.Lock()
	if g.srcCkpts != nil {
		if runErr == nil {
			g.srcCkpts[r.idx] = r.checkpointNow()
		} else {
			g.srcCkpts[r.idx] = SourceCheckpoint{Name: r.src.Name, Offset: -1, DecodeHW: math.MinInt64}
		}
	}
	g.active--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// run is one source goroutine: decode, filter, stamp per-source
// sequence numbers, batch per shard, and dispatch with min-watermark
// stamps until EOF, error, or cancellation.
func (r *sourceRunner) run(ctx context.Context) error {
	// One record variable for the whole loop: the filter takes its
	// address, which would otherwise move a fresh record to the heap for
	// every line decoded.
	var rec weblog.Record
	for {
		if r.p.gate.want.Load() {
			if err := r.park(ctx); err != nil {
				return err
			}
		}
		var err error
		rec, err = r.src.Dec.Next()
		if err == io.EOF {
			if ferr := r.flushAll(ctx); ferr != nil {
				return ferr
			}
			r.lw.Store(math.MaxInt64) // this source no longer bounds the merge
			return nil
		}
		if err != nil {
			// Hand over what decoded cleanly before the error, so partial
			// results match Run's decode-error semantics per source.
			if ferr := r.flushAll(ctx); ferr != nil {
				return ferr
			}
			r.lw.Store(math.MaxInt64)
			return fmt.Errorf("source %s: %w", r.src.Name, err)
		}
		if r.stop.Load() {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if r.flushReq.Load() {
			r.flushReq.Store(false)
			if ferr := r.flushAll(ctx); ferr != nil {
				return ferr
			}
		}
		// Advance the decode high-water mark before the keep filter:
		// dropped records' timestamps bound future records just as kept
		// ones do (the disorder contract covers the whole source), and a
		// source whose prefix is entirely filtered must still move its
		// low-watermark or it pins the global min and stalls every
		// shard's release. Publication itself waits for the next send or
		// watcher flush — stamps are only read at send time, so
		// per-record publication would buy no earlier release while
		// paying an O(shards) scan and a shared atomic store per record.
		if r.mDecoded != nil {
			r.mDecoded.Inc()
		}
		t := markNano(rec.Time)
		if t > r.decodeHW {
			r.decodeHW = t
		}
		if r.keep != nil && !r.keep(&rec) {
			r.p.dropped.Add(1)
			if m := r.p.metrics; m != nil {
				m.dropped.Inc()
			}
			continue
		}
		r.localSeq++
		seq := uint64(r.idx)<<sourceSeqShift | r.localSeq
		si := r.rt.route(&rec)
		if r.rt.add(si, rec, seq, t) {
			if err := r.send(ctx, si); err != nil {
				return err
			}
		}
	}
}

// send stamps the pending batch for shard si with the current global
// min-watermark and delivers it, then — only after the send completes —
// lets this source's low-watermark advance past the batch's records. The
// router resets the shard's pending floor at take, which is safe: this
// goroutine republishes the watermark only below, after the send, so the
// in-flight batch stays covered by the previously published promise.
func (r *sourceRunner) send(ctx context.Context, si int) error {
	b := r.rt.take(si)
	if b == nil {
		return nil
	}
	if mark := r.stamp(); mark == math.MinInt64 {
		b.mark = noStampMark // some source has not bounded itself yet
	} else {
		b.mark = mark
	}
	if err := r.p.send(ctx, r.p.shards[si], b); err != nil {
		// The batch never reached its shard; recycle it so a canceled
		// fan-in does not leak pool capacity.
		r.p.recycle(b)
		return err
	}
	// The batch is now in FIFO channel order: anything this source sends
	// later arrives after it, so the low-watermark may move past it.
	r.publishLW()
	return nil
}

// flushAll hands over every pending batch (shard order) without waiting
// for them to fill, then publishes the low-watermark unconditionally —
// this is what keeps a source whose records are all filtered (nothing
// ever pends or sends) publishing on the watcher's cadence instead of
// pinning the global min-stamp at its floor.
func (r *sourceRunner) flushAll(ctx context.Context) error {
	var flushed uint64
	for si := range r.rt.pending {
		if b := r.rt.pending[si]; b != nil && len(b.recs) > 0 {
			flushed++
		}
		if err := r.send(ctx, si); err != nil {
			return err
		}
	}
	r.publishLW()
	if flushed > 0 {
		if m := r.p.metrics; m != nil {
			m.flushed.Add(flushed)
		}
	}
	return nil
}

// publishLW recomputes and publishes this source's low-watermark: the
// minimum of (highest decoded time − MaxSkew) — covering records not yet
// decoded — and every pending batch's minimum record time — covering
// records decoded but not yet sent. The value is monotone: a new record
// is always at or above decodeHW − MaxSkew, which is already at or above
// the previously published bound.
func (r *sourceRunner) publishLW() {
	lw := int64(math.MinInt64)
	if r.decodeHW != math.MinInt64 {
		lw = r.decodeHW - int64(r.p.opts.MaxSkew)
	}
	for _, m := range r.rt.pendMin {
		if m < lw {
			lw = m
		}
	}
	r.lw.Store(lw)
}

// stamp reads the global min-watermark: the lowest published promise
// across all sources. Batches stamped unstampedMark (some source has not
// bounded itself yet) never advance a shard's release watermark.
func (r *sourceRunner) stamp() int64 {
	min := int64(math.MaxInt64)
	for i := range r.lws {
		if v := r.lws[i].v.Load(); v < min {
			min = v
		}
	}
	return min
}
