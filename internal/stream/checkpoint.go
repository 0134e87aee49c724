// checkpoint.go is the capture/restore half of the durable-checkpoint
// contract (statecodec.go is the serialization half): CaptureCheckpoint
// quiesces a running fan-in pipeline at a consistent record boundary and
// serializes every shard's analyzer states, reorder buffer, and
// watermarks together with every source's resume offset; a fresh
// pipeline restored with RestoreCheckpoint and re-run from those offsets
// folds the remainder of the stream into byte-identical final results
// (the crash-injection suite's invariant). MergeCheckpoints folds N
// processes' checkpoints into one estate-wide Results through the same
// commutative shard merge the parity suites prove — a serialized shard
// state merges exactly like a live one.
//
// Consistency argument: a checkpoint is taken only when (1) every source
// runner is parked at a record boundary with its pending batches handed
// to the shard channels, (2) every shard channel has been drained past a
// sync marker, and (3) each runner's recorded offset is the byte just
// past its last decoded record. Records are therefore either fully
// folded into the captured state (or its captured reorder buffer) or
// entirely after the captured offsets — never both, never neither.
package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/weblog"
)

// SourceCheckpoint records one fan-in source's resume point.
type SourceCheckpoint struct {
	// Name is the Source.Name the checkpoint was taken from; restore
	// validates it against the resumed source list index-wise (source
	// order determines sequence numbering, so it must not change).
	Name string
	// Offset is the absolute byte offset in the underlying input just
	// past the last decoded record (Source.BaseOffset plus the decoder's
	// own consumed-byte count), or -1 when the source's decoder does not
	// implement OffsetTracker.
	Offset int64
	// HeaderLen is the byte length of the CSV header row (0 for
	// headerless formats): a resumed CSV decoder must be re-fed those
	// bytes before the data at Offset.
	HeaderLen int64
	// LocalSeq is the source's kept-record counter. Resuming from it
	// keeps global sequence numbers — and every min-by-seq analyzer
	// choice — identical to an uninterrupted run.
	LocalSeq uint64
	// DecodeHW is the highest event time decoded so far (unix nanos,
	// math.MinInt64 when none): the base of the source's published
	// low-watermark.
	DecodeHW int64
}

// ShardCheckpoint is one shard worker's captured state.
type ShardCheckpoint struct {
	// States holds each analyzer's encoded per-shard state, in pipeline
	// analyzer order.
	States [][]byte
	// HeapRecs/HeapSeqs are the reorder buffer's records in internal
	// array order (a valid binary-heap layout, restored verbatim).
	HeapRecs []weblog.Record
	HeapSeqs []uint64
	// MaxSeen is the shard's event-time high-water mark.
	MaxSeen time.Time
	// StampWM is the highest fan-in min-watermark stamp applied (unix
	// nanos; unstampedMark when none).
	StampWM int64
	// Records counts records folded by this shard so far.
	Records uint64
}

// PipelineCheckpoint is a complete, self-describing snapshot of a
// pipeline's analyzer state and ingestion progress. It serializes with
// MarshalBinary/UnmarshalBinary; internal/checkpoint wraps the bytes in
// the checksummed, versioned container written to disk.
type PipelineCheckpoint struct {
	// Shards is the worker-pool width; restore requires an equal width
	// (shard assignment is a pure function of τ and shard count).
	Shards int
	// MaxSkew is the reorder window; restore requires it equal.
	MaxSkew time.Duration
	// Analyzers lists the analyzer registry names in pipeline order;
	// restore requires the same names in the same order.
	Analyzers []string
	// Phased reports whether the analyzers were phase-wrapped.
	Phased bool
	// Dropped counts records the Keep filter rejected before sharding.
	Dropped uint64
	// ShardStates holds one entry per shard, in shard order.
	ShardStates []ShardCheckpoint
	// Sources holds one resume point per fan-in source, in source order
	// (empty for pipelines fed by Ingest/Run).
	Sources []SourceCheckpoint
}

// wireCheckpoint strips PipelineCheckpoint's Binary(Un)Marshaler
// methods for the gob round trip: gob dispatches BinaryMarshaler types
// back to MarshalBinary, so encoding the checkpoint under its own type
// would recurse forever.
type wireCheckpoint PipelineCheckpoint

// MarshalBinary encodes the checkpoint with gob; every field is a
// slice, scalar, or time value, so equal checkpoints yield equal bytes.
func (c *PipelineCheckpoint) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode((*wireCheckpoint)(c)); err != nil {
		return nil, fmt.Errorf("stream: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes MarshalBinary bytes.
func (c *PipelineCheckpoint) UnmarshalBinary(data []byte) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode((*wireCheckpoint)(c)); err != nil {
		return fmt.Errorf("stream: decoding checkpoint: %w", err)
	}
	return nil
}

// pauseGate coordinates CaptureCheckpoint with the fan-in source
// runners: when want is raised, every runner flushes its pending
// batches and parks at its current record boundary (recording its
// resume point) until the capture completes. Runners that finish (EOF
// or error) record a final resume point on the way out, so a capture
// taken at any moment sees every source's exact position.
type pauseGate struct {
	want atomic.Bool
	mu   sync.Mutex
	cond *sync.Cond
	// active counts live runners; parked counts those waiting on want.
	active int
	parked int
	// srcCkpts[i] is source i's latest recorded resume point, installed
	// by RunSources and written under mu at park and exit.
	srcCkpts []SourceCheckpoint
}

func (g *pauseGate) init() {
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
	}
}

// CaptureCheckpoint atomically snapshots the pipeline: analyzer states,
// reorder buffers, watermarks, and source offsets, all at one
// consistent record boundary. On a running fan-in pipeline it pauses
// every source runner, drains the shard channels, captures, and
// resumes; on a closed pipeline it reads the final state directly. It
// requires every analyzer to implement StateCodec and every source
// decoder to implement OffsetTracker. It must not run concurrently with
// Ingest (fan-in runs coordinate automatically; hand-fed pipelines must
// pause their own ingestion), and a source blocked indefinitely inside
// its decoder's Next (a followed stream) stalls the capture until the
// decoder returns.
func (p *Pipeline) CaptureCheckpoint() (*PipelineCheckpoint, error) {
	// captureMu also serializes against Close: a capture in progress
	// holds it, so RunSources' Close (after all runners exit mid-capture)
	// blocks until the capture's sync batches have drained — the shard
	// channels stay open for them.
	p.captureMu.Lock()
	defer p.captureMu.Unlock()
	if p.closed {
		return p.capture()
	}
	g := &p.gate
	g.init()
	g.want.Store(true)
	g.mu.Lock()
	for g.parked < g.active {
		g.cond.Wait()
	}
	g.mu.Unlock()
	// Every runner is parked (pendings flushed) or exited (final resume
	// point recorded). Flush Ingest-path pendings too, then drain the
	// shard channels past a sync marker so every in-flight batch is
	// folded or buffered before the state is read.
	p.Flush()
	acks := make([]chan struct{}, len(p.shards))
	for i, s := range p.shards {
		acks[i] = make(chan struct{})
		s.ch <- &recordBatch{sync: acks[i]}
	}
	for _, ack := range acks {
		<-ack
	}
	ck, err := p.capture()
	g.mu.Lock()
	g.want.Store(false)
	g.cond.Broadcast()
	g.mu.Unlock()
	return ck, err
}

// capture reads the quiesced pipeline into a checkpoint. Callers hold
// captureMu; shard locks are taken per shard.
func (p *Pipeline) capture() (*PipelineCheckpoint, error) {
	codecs := make([]StateCodec, len(p.analyzers))
	names := make([]string, len(p.analyzers))
	for i, a := range p.analyzers {
		c, ok := a.(StateCodec)
		if !ok {
			return nil, fmt.Errorf("stream: analyzer %q does not implement StateCodec", a.Name())
		}
		codecs[i] = c
		names[i] = a.Name()
	}
	ck := &PipelineCheckpoint{
		Shards:    len(p.shards),
		MaxSkew:   p.opts.MaxSkew,
		Analyzers: names,
		Phased:    p.phased(),
		Dropped:   p.dropped.Load(),
	}
	for _, s := range p.shards {
		s.mu.Lock()
		sc := ShardCheckpoint{
			States:   make([][]byte, len(s.states)),
			HeapRecs: make([]weblog.Record, s.buf.len()),
			HeapSeqs: make([]uint64, s.buf.len()),
			MaxSeen:  s.maxSeen,
			StampWM:  s.stampWM,
			Records:  s.records,
		}
		var err error
		for j := range s.states {
			if sc.States[j], err = codecs[j].EncodeState(s.states[j]); err != nil {
				s.mu.Unlock()
				return nil, err
			}
		}
		for i := range sc.HeapRecs {
			rec, seq := s.buf.at(i)
			sc.HeapRecs[i], sc.HeapSeqs[i] = *rec, seq
		}
		s.mu.Unlock()
		ck.ShardStates = append(ck.ShardStates, sc)
	}
	g := &p.gate
	g.mu.Lock()
	if g.srcCkpts != nil {
		ck.Sources = append([]SourceCheckpoint(nil), g.srcCkpts...)
	}
	g.mu.Unlock()
	for _, src := range ck.Sources {
		if src.Offset < 0 {
			return nil, fmt.Errorf("stream: source %s: decoder does not implement OffsetTracker; cannot checkpoint", src.Name)
		}
	}
	return ck, nil
}

// phased reports whether the pipeline's analyzers are phase-wrapped
// (WrapPhased wraps all or none).
func (p *Pipeline) phased() bool {
	if len(p.analyzers) == 0 {
		return false
	}
	_, ok := p.analyzers[0].(phasedAnalyzer)
	return ok
}

// RestoreCheckpoint loads a checkpoint into a freshly built pipeline —
// before any record has been ingested — with the same shard count,
// MaxSkew, and analyzer set (names, order, and phase-wrapping must
// match; analyzer configuration comes from the live analyzers, not the
// checkpoint). After restoring, resume ingestion with RunSources over
// sources rebuilt at the checkpoint's offsets (core.StreamAnalyzeAllFiles
// does this when StreamOptions.CheckpointDir is set): the finished run's
// results are byte-identical to an uninterrupted one.
func (p *Pipeline) RestoreCheckpoint(ck *PipelineCheckpoint) error {
	if p.closed {
		return fmt.Errorf("stream: RestoreCheckpoint: pipeline is closed")
	}
	if len(p.shards) != ck.Shards {
		return fmt.Errorf("stream: RestoreCheckpoint: pipeline has %d shards, checkpoint has %d (shard assignment is per-count; they must match)", len(p.shards), ck.Shards)
	}
	if p.opts.MaxSkew != ck.MaxSkew {
		return fmt.Errorf("stream: RestoreCheckpoint: pipeline MaxSkew %v differs from checkpoint %v", p.opts.MaxSkew, ck.MaxSkew)
	}
	if len(p.analyzers) != len(ck.Analyzers) {
		return fmt.Errorf("stream: RestoreCheckpoint: pipeline has %d analyzers, checkpoint has %d", len(p.analyzers), len(ck.Analyzers))
	}
	for i, a := range p.analyzers {
		if a.Name() != ck.Analyzers[i] {
			return fmt.Errorf("stream: RestoreCheckpoint: analyzer %d is %q, checkpoint has %q", i, a.Name(), ck.Analyzers[i])
		}
	}
	if p.phased() != ck.Phased {
		return fmt.Errorf("stream: RestoreCheckpoint: pipeline phased=%v, checkpoint phased=%v", p.phased(), ck.Phased)
	}
	if len(ck.ShardStates) != ck.Shards {
		return fmt.Errorf("stream: RestoreCheckpoint: checkpoint has %d shard states for %d shards", len(ck.ShardStates), ck.Shards)
	}
	codecs := make([]StateCodec, len(p.analyzers))
	for i, a := range p.analyzers {
		c, ok := a.(StateCodec)
		if !ok {
			return fmt.Errorf("stream: analyzer %q does not implement StateCodec", a.Name())
		}
		codecs[i] = c
	}
	for si, s := range p.shards {
		sc := &ck.ShardStates[si]
		if len(sc.States) != len(p.analyzers) {
			return fmt.Errorf("stream: RestoreCheckpoint: shard %d has %d states for %d analyzers", si, len(sc.States), len(p.analyzers))
		}
		if len(sc.HeapRecs) != len(sc.HeapSeqs) {
			return fmt.Errorf("stream: RestoreCheckpoint: shard %d heap has %d records but %d seqs", si, len(sc.HeapRecs), len(sc.HeapSeqs))
		}
		s.mu.Lock()
		if s.records != 0 || s.buf.len() != 0 {
			s.mu.Unlock()
			return fmt.Errorf("stream: RestoreCheckpoint: pipeline has already ingested records")
		}
		p.observers[si] = nil
		for j := range sc.States {
			st, err := codecs[j].DecodeState(sc.States[j])
			if err != nil {
				s.mu.Unlock()
				return err
			}
			s.states[j] = st
			s.folds[j] = batchApplier(st)
			if o, ok := st.(WatermarkObserver); ok && p.opts.MaxSkew > 0 {
				p.observers[si] = append(p.observers[si], o)
			}
		}
		// The captured heap array is a valid heap layout; restore it
		// verbatim rather than re-pushing element by element.
		s.buf = recHeap{}
		for i := range sc.HeapRecs {
			s.buf.add(&sc.HeapRecs[i], sc.HeapSeqs[i])
		}
		s.maxSeen = sc.MaxSeen
		s.stampWM = sc.StampWM
		s.records = sc.Records
		s.mu.Unlock()
	}
	p.dropped.Store(ck.Dropped)
	p.restored = append([]SourceCheckpoint(nil), ck.Sources...)
	return nil
}

// MergeCheckpoints folds N workers' checkpoints into one estate-wide
// Results — the cross-process analogue of the in-process shard merge.
// Each checkpoint's shard states (reorder-buffer remnants included) are
// restored and finalized in a throwaway pipeline, then every shard
// state across every checkpoint merges through the analyzers' own
// commutative Snapshot. The result is byte-identical to a single
// process ingesting the union of the workers' inputs, provided the
// workers partitioned the records by τ tuple (an entity's records must
// all live in one worker — the same locality the in-process dispatcher
// guarantees) and each worker's input respected its own MaxSkew bound.
// Analyzers must be configured like the workers' (phase-wrapped the
// same way); every checkpoint must carry the same analyzer names.
func MergeCheckpoints(cks []*PipelineCheckpoint, analyzers []Analyzer) (*Results, error) {
	if len(cks) == 0 {
		return nil, fmt.Errorf("stream: MergeCheckpoints: no checkpoints")
	}
	if len(analyzers) == 0 {
		return nil, fmt.Errorf("stream: MergeCheckpoints: no analyzers")
	}
	res := &Results{byName: make(map[string]any, len(analyzers))}
	allStates := make([][]ShardState, len(analyzers))
	for _, ck := range cks {
		p := NewPipeline(Options{Shards: ck.Shards, MaxSkew: ck.MaxSkew, Analyzers: analyzers})
		err := p.RestoreCheckpoint(ck)
		// Close folds any reorder-buffer remnants a mid-run checkpoint
		// carried, finalizing the shard states before the merge reads
		// them.
		p.Close()
		if err != nil {
			return nil, err
		}
		res.Shards += ck.Shards
		res.Dropped += ck.Dropped
		for _, s := range p.shards {
			res.Records += s.records
			for ai := range analyzers {
				allStates[ai] = append(allStates[ai], s.states[ai])
			}
		}
	}
	for ai, a := range analyzers {
		res.names = append(res.names, a.Name())
		res.byName[a.Name()] = a.Snapshot(allStates[ai])
	}
	return res, nil
}
