package stream

import (
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compliance"
	"repro/internal/obs"
	"repro/internal/weblog"
)

// Options configures a Pipeline.
type Options struct {
	// Shards is the worker-pool width. Zero means GOMAXPROCS. The shard
	// count never changes results: the merge is deterministic (see
	// DESIGN.md, "shard-merge invariant").
	Shards int
	// Buffer is the per-shard channel depth, counted in record batches.
	// Dispatch is per source: every fan-in source runner (and the Ingest
	// path, as the degenerate one-source case) routes records through its
	// own private shard router and blocks on the shard's channel when it
	// is full, which is the pipeline's backpressure — one full shard
	// stalls only the sources currently sending to it. Zero means 16
	// batches.
	Buffer int
	// MaxSkew bounds tolerated timestamp disorder. Each shard holds back
	// records in a reorder buffer until the shard's high-water timestamp
	// passes record time + MaxSkew, then releases them in time order, so
	// any input whose records are at most MaxSkew out of order aggregates
	// exactly like fully sorted input. Zero means DefaultMaxSkew; a
	// negative value disables reordering entirely (the input is trusted
	// to be per-tuple time-ordered and records apply immediately).
	MaxSkew time.Duration
	// BatchSize is how many records the dispatcher accumulates per shard
	// before handing the batch to the shard worker. Batching amortizes
	// channel operations and analyzer dispatch; batch boundaries never
	// affect results (see DESIGN.md, "batched record path"). Zero means
	// DefaultBatchSize; 1 effectively disables batching.
	BatchSize int
	// FlushInterval bounds how long a partially filled batch may sit in
	// the dispatcher, which bounds the staleness of live snapshots and of
	// follow-mode output on a slow stream. Zero means
	// DefaultFlushInterval; a negative value disables the background
	// flusher entirely (batches then move only when full, at Flush, or at
	// Close — appropriate for one-shot runs that never snapshot mid-run).
	// Exception: a fan-in run (RunSources) always flushes its sources'
	// pendings, at DefaultFlushInterval when this is negative — there,
	// flushing is what keeps the min-watermark merge live, not just
	// snapshots fresh, and flush timing never changes results.
	FlushInterval time.Duration
	// Keep, if non-nil, filters records before sharding (dropped records
	// count in DroppedRecords). It runs on the dispatcher goroutine, so an
	// unsynchronized weblog.Preprocessor.Keep is safe here. A fan-in run
	// (RunSources) shares it across every source goroutine unless NewKeep
	// is set, in which case it must be safe for concurrent use. The
	// record pointer is valid only for the call.
	Keep func(*weblog.Record) bool
	// NewKeep, if non-nil, supplies each RunSources source goroutine its
	// own filter instance, so unsynchronized filters (a fresh
	// weblog.Preprocessor per source) parallelize without races. The
	// produced filters must implement identical drop decisions; only
	// their private audit counters may differ. Single-dispatcher paths
	// (Ingest, Run) ignore it and use Keep.
	NewKeep func() func(*weblog.Record) bool
	// Enrich, if non-nil, runs on the shard workers in parallel, filling
	// BotName/Category the way the batch Preprocessor does. It must be
	// safe for concurrent use (agent.Matcher is).
	Enrich func(*weblog.Record)
	// Analyzers selects the online analyses every record is folded into.
	// Nil means the single §4.2 compliance analyzer configured by the
	// Compliance field below; build other sets with NewAnalyzers or the
	// New*Analyzer constructors.
	Analyzers []Analyzer
	// Compliance tunes the default compliance analyzer when Analyzers is
	// nil; the zero value means compliance.DefaultConfig(). Ignored when
	// Analyzers is set (configure via NewComplianceAnalyzer instead).
	Compliance compliance.Config
	// Metrics, if non-nil, instruments the pipeline: per-source decode
	// and per-shard fold counters, batch-pool churn, reorder-heap depth,
	// release latency, and watermark gauges, all exported through the
	// Metrics' obs.Registry. Instruments are resolved into struct fields
	// at construction, so the fold path pays one nil check and atomic
	// adds — never an allocation. Snapshots additionally carry
	// Results.Ingest when Metrics is set.
	Metrics *Metrics
	// OnAdvance, if non-nil, is called after a shard's release watermark
	// advances (outside the shard lock, with the new watermark). Shards
	// call it concurrently and on every advancing batch, so it must be
	// fast, non-blocking, and safe for concurrent use — the observatory
	// publisher coalesces these calls into atomic snapshot publications.
	// Never called when reordering is disabled (MaxSkew < 0).
	OnAdvance func(watermark time.Time)

	// poisonRecycled is a test hook: recycled batches and release scratch
	// are scribbled with garbage before reuse, so any analyzer that
	// retains a pointer into batch memory past Apply/ApplyBatch corrupts
	// its own results and fails the parity suite (see pool_test.go).
	poisonRecycled bool
}

// DefaultMaxSkew is the reorder window used when Options.MaxSkew is zero:
// wide enough for the seconds-level interleaving of merged multi-frontend
// logs, narrow enough to hold back only minutes of traffic.
const DefaultMaxSkew = 2 * time.Minute

// DefaultBatchSize is the per-shard record batch size used when
// Options.BatchSize is zero: large enough to amortize channel and dispatch
// overhead to noise, small enough that a batch stays cache-resident.
const DefaultBatchSize = 256

// DefaultFlushInterval is the background flush cadence used when
// Options.FlushInterval is zero — the worst-case added latency between a
// record arriving on a slow stream and its effect becoming visible to
// live snapshots.
const DefaultFlushInterval = 200 * time.Millisecond

// recordBatch is the pooled unit of work on the shard channels: parallel
// record/sequence slices filled by the dispatcher and recycled by the
// worker after the fold. Recycling is what makes the steady-state hot path
// allocation-free — and what obliges analyzers never to retain pointers
// into a batch past the fold (the no-aliasing rule; string fields are safe
// to keep because string bytes are immutable and never recycled).
//
// mark is the fan-in min-watermark stamp (unix nanos): a promise that
// every record any source delivers after this batch has time >= mark.
// Batches from the single-dispatcher Ingest path carry unstampedMark and
// the shard falls back to its local maxSeen watermark.
type recordBatch struct {
	recs []weblog.Record
	seqs []uint64
	mark int64
	// sync, when non-nil, marks a drain barrier instead of work: the
	// shard worker closes it and moves on without folding or recycling.
	// CaptureCheckpoint sends one per shard to prove every batch queued
	// before it has been folded or buffered. Sync batches are built
	// fresh and never pooled.
	sync chan struct{}
}

// recHeap orders buffered records by (time, sequence): a concrete min-heap
// used as each shard's reorder buffer. It is hand-rolled rather than
// container/heap because the interface-based API boxes every pushed and
// popped element — two heap allocations per record on the hot path.
//
// The heap array holds 24-byte keys without pointers; the records sit in a
// slab of fixed-size chunks, addressed by the key's slot. So a sift step
// swaps two small keys and never a record with its eight string headers
// (no copy of 176 bytes, no GC write barriers), growing the heap never
// copies records, and the GC does not scan the heap array.
type recHeap struct {
	keys  []heapKey
	slab  [][]weblog.Record // chunks of slabChunk records, never moved
	free  []uint32          // vacated slots
	slots uint32            // slots handed out so far
	// byTime is set once a record whose instant the key cannot order
	// exactly has been pushed: from then on comparisons read the records'
	// times, as time.Time orders them.
	byTime bool
}

// heapKey is one buffered record's place in the heap: its instant as
// seconds and nanoseconds since the Unix epoch, its sequence number, and
// its slab slot. For a time without a monotonic clock reading and with
// |Unix()| < 2^62, (sec, nsec) order is exactly Time.Before/Equal order.
type heapKey struct {
	sec  int64
	nsec int32
	slot uint32
	seq  uint64
}

// slabChunk is the number of records in one slab chunk.
const slabChunk = 1024

func (h *recHeap) len() int { return len(h.keys) }

// at returns the record and sequence number at heap position i.
func (h *recHeap) at(i int) (*weblog.Record, uint64) {
	k := h.keys[i]
	return h.rec(k.slot), k.seq
}

func (h *recHeap) rec(slot uint32) *weblog.Record {
	return &h.slab[slot/slabChunk][slot%slabChunk]
}

func (h *recHeap) less(i, j int) bool {
	a, b := &h.keys[i], &h.keys[j]
	if h.byTime {
		ta, tb := h.rec(a.slot).Time, h.rec(b.slot).Time
		if !ta.Equal(tb) {
			return ta.Before(tb)
		}
		return a.seq < b.seq
	}
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	if a.nsec != b.nsec {
		return a.nsec < b.nsec
	}
	return a.seq < b.seq
}

// add stores a copy of rec and appends its key at the end of the heap
// array without restoring the heap order.
func (h *recHeap) add(rec *weblog.Record, seq uint64) {
	var slot uint32
	if n := len(h.free); n > 0 {
		slot, h.free = h.free[n-1], h.free[:n-1]
	} else {
		if h.slots == uint32(len(h.slab))*slabChunk {
			h.slab = append(h.slab, make([]weblog.Record, slabChunk))
		}
		slot = h.slots
		h.slots++
	}
	*h.rec(slot) = *rec
	t := rec.Time
	sec := t.Unix()
	if sec <= -1<<62 || sec >= 1<<62 || t != t.Round(0) {
		// Out of the range where Unix() cannot wrap, or carrying a
		// monotonic reading, which Before and Equal prefer.
		h.byTime = true
	}
	h.keys = append(h.keys, heapKey{sec: sec, nsec: int32(t.Nanosecond()), slot: slot, seq: seq})
}

// push adds a copy of rec with sequence number seq to the heap.
func (h *recHeap) push(rec *weblog.Record, seq uint64) {
	h.add(rec, seq)
	i := len(h.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.keys[i], h.keys[parent] = h.keys[parent], h.keys[i]
		i = parent
	}
}

// pop removes and returns the minimum record and its sequence number.
func (h *recHeap) pop() (weblog.Record, uint64) {
	n := len(h.keys)
	top := h.keys[0]
	h.keys[0] = h.keys[n-1]
	h.keys = h.keys[:n-1]
	// Sift down.
	i, end := 0, n-1
	for {
		left := 2*i + 1
		if left >= end {
			break
		}
		child := left
		if right := left + 1; right < end && h.less(right, left) {
			child = right
		}
		if !h.less(child, i) {
			break
		}
		h.keys[i], h.keys[child] = h.keys[child], h.keys[i]
		i = child
	}
	r := h.rec(top.slot)
	rec := *r
	*r = weblog.Record{} // release the Record's strings to the GC
	h.free = append(h.free, top.slot)
	return rec, top.seq
}

// applyBatchFn folds one run of records (with their global sequence
// numbers) into a single analyzer state.
type applyBatchFn func(recs []weblog.Record, seqs []uint64)

// batchApplier resolves a state's batch fold: its native ApplyBatch when
// the state implements BatchApplier, otherwise a shim that falls back to
// per-record Apply — which is how analyzers written against the original
// contract keep working unchanged.
func batchApplier(st ShardState) applyBatchFn {
	if ba, ok := st.(BatchApplier); ok {
		return ba.ApplyBatch
	}
	return func(recs []weblog.Record, seqs []uint64) {
		for i := range recs {
			st.Apply(&recs[i], seqs[i])
		}
	}
}

// shardWorker owns one shard: a channel feeding a single goroutine that
// enriches, reorders within the skew window, and folds into the shard's
// analyzer states. mu guards buf/states so live snapshots can read them
// mid-run.
type shardWorker struct {
	ch      chan *recordBatch
	mu      sync.Mutex
	buf     recHeap
	maxSeen time.Time
	// mFolded/mDepth/mWM/mRelease are this shard's instruments, nil when
	// the pipeline runs without Options.Metrics; resolved once at
	// construction so the fold path never touches the registry.
	mFolded  *obs.Counter
	mDepth   *obs.Gauge
	mWM      *obs.Gauge
	mRelease *obs.Histogram
	// stampWM is the highest fan-in min-watermark stamp applied so far
	// (unix nanos): stamped batches release the reorder buffer strictly
	// below it, never by the local maxSeen heuristic, so one lagging
	// source holds release back on every shard.
	stampWM int64
	states  []ShardState   // one per pipeline analyzer, same order
	folds   []applyBatchFn // matching batch fold per state
	runRecs []weblog.Record
	runSeqs []uint64
	records uint64
	poison  bool
}

// fold applies one released run to every analyzer state. Must hold mu.
func (s *shardWorker) fold(recs []weblog.Record, seqs []uint64) {
	if len(recs) == 0 {
		return
	}
	s.records += uint64(len(recs))
	if s.mFolded != nil {
		s.mFolded.Add(uint64(len(recs)))
	}
	for _, f := range s.folds {
		f(recs, seqs)
	}
}

// release pops every buffered record at or before watermark — in (time,
// sequence) order — into the reused run scratch and folds the run. With
// strict set, records exactly at the watermark are held back instead:
// the fan-in path releases exclusively, because a stamp only promises
// later arrivals are at or above it, and an equal-time late arrival
// folding after an already-released twin would make the fold order
// depend on goroutine interleaving. Must hold mu.
func (s *shardWorker) release(watermark time.Time, strict bool) {
	var relStart time.Time
	if s.mRelease != nil {
		relStart = time.Now()
	}
	s.runRecs = s.runRecs[:0]
	s.runSeqs = s.runSeqs[:0]
	for s.buf.len() > 0 {
		first, _ := s.buf.at(0)
		t := first.Time
		if strict {
			if !t.Before(watermark) {
				break
			}
		} else if t.After(watermark) {
			break
		}
		rec, seq := s.buf.pop()
		s.runRecs = append(s.runRecs, rec)
		s.runSeqs = append(s.runSeqs, seq)
	}
	s.fold(s.runRecs, s.runSeqs)
	if s.poison {
		poisonRecords(s.runRecs, s.runSeqs)
	}
	if s.mRelease != nil {
		s.mRelease.Observe(time.Since(relStart).Seconds())
	}
}

// releaseAll drains the reorder buffer unconditionally, still in (time,
// sequence) order (pipeline close). Must hold mu.
func (s *shardWorker) releaseAll() {
	s.runRecs = s.runRecs[:0]
	s.runSeqs = s.runSeqs[:0]
	for s.buf.len() > 0 {
		rec, seq := s.buf.pop()
		s.runRecs = append(s.runRecs, rec)
		s.runSeqs = append(s.runSeqs, seq)
	}
	s.fold(s.runRecs, s.runSeqs)
	if s.poison {
		poisonRecords(s.runRecs, s.runSeqs)
	}
}

// Pipeline is the sharded streaming analyzer runtime. Build with
// NewPipeline, then either call Run with a Decoder, or Ingest records by
// hand and Close. Snapshot may be called at any time; after Close it is
// final and deterministic.
type Pipeline struct {
	opts      Options
	analyzers []Analyzer
	shards    []*shardWorker
	observers [][]WatermarkObserver // per shard, the states that watch watermarks
	wg        sync.WaitGroup
	seq       uint64
	dropped   atomic.Uint64
	closed    bool
	// metrics mirrors opts.Metrics (nil when uninstrumented);
	// mIngestDecoded is the single-dispatcher path's decode counter,
	// resolved once so Ingest pays only the atomic add.
	metrics        *Metrics
	mIngestDecoded *obs.Counter

	batchSize int
	pool      sync.Pool
	// mu guards router on the single-dispatcher path only: Ingest (one
	// goroutine) and the background flusher both touch its pending
	// batches, and holding mu across the append-and-send keeps per-shard
	// delivery in ingest order. Fan-in source runners never take it —
	// each owns a private router and its sends synchronize on the shard
	// channels alone, so this mutex is not on the fan-in hot path.
	mu        sync.Mutex
	router    *shardRouter
	flushStop chan struct{}
	flushDone chan struct{}

	// captureMu serializes CaptureCheckpoint against Close (and against
	// other captures): Close taking it at entry is what keeps the shard
	// channels open for a capture's sync batches even when every source
	// finishes mid-capture. gate coordinates captures with the fan-in
	// source runners; restored carries a restored checkpoint's source
	// resume points for RunSources to seed its runners from.
	captureMu sync.Mutex
	gate      pauseGate
	restored  []SourceCheckpoint
}

// NewPipeline builds and starts a pipeline; its workers idle until records
// arrive.
func NewPipeline(opts Options) *Pipeline {
	if opts.Shards <= 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if opts.Buffer <= 0 {
		opts.Buffer = 16
	}
	if opts.MaxSkew == 0 {
		opts.MaxSkew = DefaultMaxSkew
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.FlushInterval == 0 {
		opts.FlushInterval = DefaultFlushInterval
	}
	analyzers := opts.Analyzers
	if len(analyzers) == 0 {
		analyzers = []Analyzer{NewComplianceAnalyzer(opts.Compliance)}
	}
	p := &Pipeline{opts: opts, analyzers: analyzers, batchSize: opts.BatchSize, metrics: opts.Metrics}
	if p.metrics != nil {
		p.metrics.bindShards(opts.Shards)
		p.mIngestDecoded = p.metrics.sourceCounter("ingest")
	}
	p.pool.New = func() any {
		if m := p.metrics; m != nil {
			m.poolMisses.Inc()
		}
		return &recordBatch{
			recs: make([]weblog.Record, 0, p.batchSize),
			seqs: make([]uint64, 0, p.batchSize),
			mark: unstampedMark,
		}
	}
	p.shards = make([]*shardWorker, opts.Shards)
	p.observers = make([][]WatermarkObserver, opts.Shards)
	for i := range p.shards {
		s := &shardWorker{
			ch:      make(chan *recordBatch, opts.Buffer),
			stampWM: unstampedMark,
			states:  make([]ShardState, len(analyzers)),
			folds:   make([]applyBatchFn, len(analyzers)),
			poison:  opts.poisonRecycled,
		}
		if p.metrics != nil {
			s.mFolded, s.mDepth, s.mWM = p.metrics.shardInstruments(i)
			s.mRelease = p.metrics.release
		}
		for j, a := range analyzers {
			s.states[j] = a.NewState()
			s.folds[j] = batchApplier(s.states[j])
			// Watermark observers only make sense when the reorder buffer
			// maintains a cross-tuple time bound (MaxSkew > 0).
			if o, ok := s.states[j].(WatermarkObserver); ok && opts.MaxSkew > 0 {
				p.observers[i] = append(p.observers[i], o)
			}
		}
		p.shards[i] = s
		p.wg.Add(1)
		go p.work(i, s)
	}
	// The Ingest path's router: trackMin is off because single-dispatcher
	// batches are unstamped (the shard's maxSeen heuristic bounds release).
	p.router = newShardRouter(p, false)
	if opts.FlushInterval > 0 {
		p.flushStop = make(chan struct{})
		p.flushDone = make(chan struct{})
		go p.flusher(opts.FlushInterval)
	}
	return p
}

// work is one shard's goroutine: enrich in parallel, then buffer/fold
// under the shard lock, one batch at a time, recycling each batch after
// its fold.
func (p *Pipeline) work(idx int, s *shardWorker) {
	defer p.wg.Done()
	skew := p.opts.MaxSkew
	for b := range s.ch {
		if b.sync != nil {
			close(b.sync)
			continue
		}
		if p.opts.Enrich != nil {
			for i := range b.recs {
				p.opts.Enrich(&b.recs[i])
			}
		}
		var advanced time.Time
		didAdvance := false
		s.mu.Lock()
		switch {
		case skew <= 0:
			s.fold(b.recs, b.seqs)
		case b.mark != unstampedMark:
			// Fan-in batch: push everything, then release strictly below
			// the highest min-watermark stamp seen. The stamp — not the
			// local maxSeen — is what bounds future arrivals when several
			// sources interleave on this shard; until every source has
			// published a promise (stampWM still at the noStampMark
			// floor) nothing may release at all.
			for i := range b.recs {
				s.buf.push(&b.recs[i], b.seqs[i])
			}
			if b.mark > s.stampWM {
				s.stampWM = b.mark
			}
			if s.stampWM > noStampMark {
				watermark := time.Unix(0, s.stampWM).UTC()
				s.release(watermark, true)
				for _, o := range p.observers[idx] {
					o.Advance(watermark)
				}
				advanced, didAdvance = watermark, true
			}
		default:
			for i := range b.recs {
				if b.recs[i].Time.After(s.maxSeen) {
					s.maxSeen = b.recs[i].Time
				}
				s.buf.push(&b.recs[i], b.seqs[i])
			}
			watermark := s.maxSeen.Add(-skew)
			s.release(watermark, false)
			for _, o := range p.observers[idx] {
				o.Advance(watermark)
			}
			advanced, didAdvance = watermark, true
		}
		if s.mDepth != nil {
			s.mDepth.Set(int64(s.buf.len()))
			if didAdvance {
				s.mWM.Set(markNano(advanced))
			}
		}
		s.mu.Unlock()
		// The advance hook runs outside the shard lock so a slow
		// subscriber can never stall the fold path; the publisher it
		// feeds coalesces bursts of advances into one snapshot.
		if didAdvance && p.opts.OnAdvance != nil {
			p.opts.OnAdvance(advanced)
		}
		p.recycle(b)
	}
	// Channel closed: flush the reorder buffer in time order.
	s.mu.Lock()
	s.releaseAll()
	s.mu.Unlock()
}

// getBatch takes an empty batch from the pool.
func (p *Pipeline) getBatch() *recordBatch {
	if m := p.metrics; m != nil {
		m.poolGets.Inc()
	}
	return p.pool.Get().(*recordBatch)
}

// recycle returns a folded batch to the pool, scribbling it first when the
// poison hook is armed.
func (p *Pipeline) recycle(b *recordBatch) {
	if p.opts.poisonRecycled {
		poisonRecords(b.recs, b.seqs)
	}
	b.recs = b.recs[:0]
	b.seqs = b.seqs[:0]
	b.mark = unstampedMark
	if m := p.metrics; m != nil {
		m.poolPuts.Inc()
	}
	p.pool.Put(b)
}

// poisonRecords overwrites a recycled run with garbage so any state that
// aliased it produces visibly corrupt results.
func poisonRecords(recs []weblog.Record, seqs []uint64) {
	for i := range recs {
		recs[i] = weblog.Record{
			UserAgent: "POISONED-UA",
			Time:      time.Unix(0, 0),
			IPHash:    "POISONED-HASH",
			ASN:       "POISONED-ASN",
			Site:      "POISONED-SITE",
			Path:      "/poisoned",
			Status:    -999,
			Bytes:     -999,
			Referer:   "POISONED-REF",
			BotName:   "POISONED-BOT",
			Category:  "POISONED-CAT",
		}
	}
	for i := range seqs {
		seqs[i] = ^uint64(0)
	}
}

// flusher periodically pushes partially filled batches to their shards so
// slow streams surface in live snapshots within FlushInterval.
func (p *Pipeline) flusher(interval time.Duration) {
	defer close(p.flushDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.flushStop:
			return
		case <-t.C:
			p.Flush()
		}
	}
}

// Flush hands every pending, partially filled batch to its shard without
// waiting for it to fill. Callers that snapshot mid-run (follow mode) can
// Flush first for a fresher view; Close flushes implicitly. Flush does not
// wait for the shards to fold the flushed batches.
func (p *Pipeline) Flush() {
	var flushed uint64
	p.mu.Lock()
	for si := range p.shards {
		if b := p.router.take(si); b != nil {
			p.shards[si].ch <- b
			flushed++
		}
	}
	p.mu.Unlock()
	if flushed > 0 {
		if m := p.metrics; m != nil {
			m.flushed.Add(flushed)
		}
	}
}

// FNV-1a constants (hash/fnv's, inlined so the dispatcher's per-record
// hash allocates nothing — the hash.Hash interface costs a heap-allocated
// state plus a []byte conversion per written string).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvString folds s into an FNV-1a state.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// shardOf partitions by τ = (ASN, IP hash, user agent) hash, so one
// requesting entity's records always meet the same single-goroutine
// analyzer states in order. The byte sequence hashed is identical to the
// historical hash/fnv-based version (NUL-separated fields), so shard
// assignment is unchanged.
func (p *Pipeline) shardOf(r *weblog.Record) int {
	h := fnvString(uint64(fnvOffset64), r.ASN)
	h ^= 0
	h *= fnvPrime64
	h = fnvString(h, r.IPHash)
	h ^= 0
	h *= fnvPrime64
	h = fnvString(h, r.UserAgent)
	return int(h % uint64(len(p.shards)))
}

// Ingest routes one record to its shard's pending batch, handing the batch
// over — and blocking for backpressure — when it fills. It must be called
// from a single goroutine (the dispatcher), and not after Close. On
// context cancellation the shard's pending batch is dropped along with the
// record (in-flight work is forfeit on cancel, as before). This is the
// degenerate one-source case of the fan-in routing machinery: the same
// shardRouter every source runner owns, with mu standing in for goroutine
// ownership because the background flusher shares this one.
func (p *Pipeline) Ingest(ctx context.Context, rec weblog.Record) error {
	if c := p.mIngestDecoded; c != nil {
		c.Inc()
	}
	if p.opts.Keep != nil && !p.opts.Keep(&rec) {
		p.dropped.Add(1)
		if m := p.metrics; m != nil {
			m.dropped.Inc()
		}
		return nil
	}
	p.seq++
	// Routing (the memoized τ hash) happens outside mu: the memo belongs
	// to the Ingest goroutine alone — the flusher only takes pending
	// batches — so only the append-and-send needs the lock.
	si := p.router.route(&rec)
	p.mu.Lock()
	var err error
	if p.router.add(si, rec, p.seq, 0) {
		err = p.send(ctx, p.shards[si], p.router.take(si))
	}
	p.mu.Unlock()
	return err
}

// send delivers one batch to a shard, honoring ctx for backpressure
// cancellation. Locking is per dispatch path, not global: single-
// dispatcher callers (Ingest, Flush) hold mu because the background
// flusher shares their router, and holding it across the send keeps
// per-shard delivery in ingest order. Fan-in source runners call it with
// NO lock at all — each runner owns a private router, its sends to a
// given shard are same-goroutine FIFO, cross-source order is absorbed by
// the stamped reorder path, and RunSources retires the background flusher
// up front — so the only cross-goroutine synchronization on the fan-in
// hot path is the channel send itself.
func (p *Pipeline) send(ctx context.Context, s *shardWorker, b *recordBatch) error {
	if ctx == nil {
		s.ch <- b
		return nil
	}
	select {
	case s.ch <- b:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stopFlusher retires the background flusher, if one is (still)
// running. The fan-in path calls it up front — source goroutines flush
// their own pendings on the watcher's cadence, so the Ingest-path
// flusher would only tick over an always-empty p.pending.
func (p *Pipeline) stopFlusher() {
	if p.flushStop != nil {
		close(p.flushStop)
		<-p.flushDone
		p.flushStop = nil
	}
}

// Close stops ingestion, flushes pending batches, waits for every shard to
// drain its channel and reorder buffer, and makes subsequent Snapshots
// final. Close is idempotent.
func (p *Pipeline) Close() {
	p.captureMu.Lock()
	defer p.captureMu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.stopFlusher()
	p.Flush()
	for _, s := range p.shards {
		close(s.ch)
	}
	p.wg.Wait()
}

// DroppedRecords reports how many records the Keep filter rejected.
func (p *Pipeline) DroppedRecords() uint64 { return p.dropped.Load() }

// Analyzers returns the pipeline's analyzer set, in Results order.
func (p *Pipeline) Analyzers() []Analyzer { return p.analyzers }

// Snapshot merges all shard states into one Results value holding every
// analyzer's snapshot. After Close the snapshot is complete and
// deterministic — independent of shard count, batch size, and scheduling.
// Mid-run it is a live monotone approximation: all shard locks are held
// during the merge, but records still in flight (pending batches,
// channels, reorder buffers) are not yet included.
func (p *Pipeline) Snapshot() *Results {
	for _, s := range p.shards {
		s.mu.Lock()
	}
	res := &Results{
		Shards:  len(p.shards),
		Dropped: p.dropped.Load(),
		byName:  make(map[string]any, len(p.analyzers)),
	}
	if m := p.metrics; m != nil {
		st := m.Stats()
		res.Ingest = &st
	}
	for _, s := range p.shards {
		res.Records += s.records
	}
	states := make([]ShardState, len(p.shards))
	for ai, a := range p.analyzers {
		for si, s := range p.shards {
			states[si] = s.states[ai]
		}
		res.names = append(res.names, a.Name())
		res.byName[a.Name()] = a.Snapshot(states)
	}
	for _, s := range p.shards {
		s.mu.Unlock()
	}
	return res
}

// Run ingests every record dec yields, closes the pipeline, and returns
// the final snapshot. On a decode error or context cancellation it still
// drains and returns the snapshot of everything ingested so far alongside
// the error, so a tailing run interrupted by ctx keeps its results.
func (p *Pipeline) Run(ctx context.Context, dec Decoder) (*Results, error) {
	var runErr error
	for {
		if ctx != nil {
			select {
			case <-ctx.Done():
				runErr = ctx.Err()
			default:
			}
			if runErr != nil {
				break
			}
		}
		rec, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			runErr = err // decoders already carry the "stream:" prefix
			break
		}
		if err := p.Ingest(ctx, rec); err != nil {
			runErr = err
			break
		}
	}
	p.Close()
	return p.Snapshot(), runErr
}
