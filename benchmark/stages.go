package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"repro/internal/agent"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/mmapio"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/weblog"
)

// traceResult is the traced child's report: the spans, every per-layer
// metric, and the stage budget in pipeline order.
type traceResult struct {
	Spans      []span
	Metrics    map[string]float64
	Layers     []layerTime
	Attempted  int
	Failed     int
	Mismatches []string
}

// check counts one checked operation, naming it when it failed.
func (t *traceResult) check(label string, ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
		t.Mismatches = append(t.Mismatches, label)
	}
}

// layerTime is one stage of the budget.
type layerTime struct {
	Name    string
	Seconds float64
}

// e2eReps is how many untraced single-processor runs set the budget's
// denominator.
const e2eReps = 3

// foldRun is the run length of the stage-isolated folds: the pipeline's
// default batch size.
const foldRun = stream.DefaultBatchSize

// readProbes is how many API reads per endpoint time the read path of a
// one-shot observatory.
const readProbes = 100

// runtimeSample reads the Go runtime's cumulative counters.
func runtimeSample() (gcCPU, totalCPU, allocBytes, allocObjects float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return f(s[0].Value), f(s[1].Value), f(s[2].Value), f(s[3].Value)
}

// noopAnalyzer folds nothing: a pipeline running it alone costs decode,
// keep, match and routing only.
type noopAnalyzer struct{}

type noopState struct{}

func (noopAnalyzer) Name() string                      { return "noop" }
func (noopAnalyzer) NewState() stream.ShardState       { return noopState{} }
func (noopAnalyzer) Snapshot([]stream.ShardState) any  { return nil }
func (noopState) Apply(*weblog.Record, uint64)         {}
func (noopState) ApplyBatch([]weblog.Record, []uint64) {}

// enrichWith is the observatory's per-record bot standardization.
func enrichWith(m *agent.CachedMatcher) func(*weblog.Record) {
	return func(rec *weblog.Record) {
		rec.BotName, rec.Category = "", ""
		if b, ok := m.Match(rec.UserAgent); ok {
			rec.BotName, rec.Category = b.Name, b.Category.String()
		}
	}
}

// buildSources decodes the mapped files the way the observatory does:
// one source per file, each file chunked when chunk is set and the
// decoder budget exceeds the file count.
func buildSources(j job, maps []*mmapio.Mapping, chunk bool) ([]stream.Source, error) {
	perFile := 1
	if chunk && j.DecodeParallelism > len(j.Paths) {
		perFile = (j.DecodeParallelism + len(j.Paths) - 1) / len(j.Paths)
	}
	var srcs []stream.Source
	for i, mp := range maps {
		clf := weblog.CLFOptions{Site: j.siteLabel(j.Paths[i])}
		if perFile == 1 {
			dec, err := stream.NewDecoderBytes(j.Format, mp.Bytes(), clf)
			if err != nil {
				return nil, err
			}
			srcs = append(srcs, stream.Source{Name: j.Paths[i], Dec: dec})
			continue
		}
		chunks, err := stream.ChunkBytes(mp.Bytes(), j.Format, perFile, clf)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, chunks...)
	}
	return srcs, nil
}

// readLatencies times n reads each of /api/v1/results and /metrics
// against h, alternating, in milliseconds; non-200 answers are counted.
func readLatencies(h http.Handler, n int) (lat []float64, bad int) {
	for i := 0; i < 2*n; i++ {
		path := "/api/v1/results"
		if i%2 == 1 {
			path = "/metrics"
		}
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
		if rec.Code != http.StatusOK {
			bad++
		}
	}
	return lat, bad
}

// depthSampler tracks the largest reorder-heap depth any shard reports
// while a run ingests.
type depthSampler struct {
	stop, done chan struct{}
	max        int64
}

func sampleDepth(reg *obs.Registry, shards int) *depthSampler {
	gauges := make([]*obs.Gauge, shards)
	for i := range gauges {
		gauges[i] = reg.Gauge("scraperlab_reorder_heap_depth", "", obs.L("shard", strconv.Itoa(i)))
	}
	d := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
				for _, g := range gauges {
					d.max = max(d.max, g.Value())
				}
			}
		}
	}()
	return d
}

func (d *depthSampler) finish() int64 {
	close(d.stop)
	<-d.done
	return d.max
}

// ckptAcc accumulates the traced checkpoint calls.
type ckptAcc struct {
	capture, encode, write float64
	count                  int
	bytes                  int64
}

// captureTraced makes the calls core's checkpoint loop makes — capture,
// encode, write — each in its own span. A capture before any source
// started has no resume offsets and is skipped, as core skips it.
func captureTraced(tr *tracer, parent int, p *stream.Pipeline, w *checkpoint.Writer, acc *ckptAcc) error {
	s := tr.begin("checkpoint.capture", parent)
	ck, err := p.CaptureCheckpoint()
	acc.capture += tr.end(s)
	if err != nil || len(ck.Sources) == 0 {
		return err
	}
	s = tr.begin("checkpoint.encode", parent)
	state, err := ck.MarshalBinary()
	acc.encode += tr.end(s)
	if err != nil {
		return err
	}
	var recs uint64
	for _, sh := range ck.ShardStates {
		recs += sh.Records
	}
	s = tr.begin("checkpoint.write", parent)
	path, err := w.Write(&checkpoint.Envelope{
		Meta:  checkpoint.Meta{WrittenUnixNano: time.Now().UnixNano(), Records: recs},
		State: state,
	})
	acc.write += tr.end(s)
	if err != nil {
		return err
	}
	acc.count++
	if fi, err := os.Stat(path); err == nil {
		acc.bytes = fi.Size()
	}
	return nil
}

// runTrace is the traced child. It runs on one processor: first the
// untraced end-to-end runs (the budget's denominator), then one traced
// end-to-end run for the runtime, pool and read-path numbers, then
// stageReps passes of the stage-isolated sequence that calls each
// layer's public functions on the same files, one span per call.
func runTrace(j job) (traceResult, error) {
	tr := newTracer(j.Workload)
	m := make(map[string]float64)
	out := traceResult{Metrics: m}
	root := tr.begin("trace", 0)

	var walls []float64
	for i := 0; i < e2eReps; i++ {
		runtime.GC()
		s := tr.begin("e2e.untraced", root)
		r, o := timedRep(j, i, false)
		tr.end(s)
		if o != nil {
			o.Close()
		}
		out.check(fmt.Sprintf("e2e run %d %s", i, r.Err), r.Digest == j.Ref.Digest)
		walls = append(walls, r.Run)
	}
	e2e := median(walls)
	m["budget.e2e_1proc_s"] = e2e

	if err := tracedE2E(tr, root, j, e2e, &out); err != nil {
		return out, err
	}
	// The stage sequence is repeated and every per-layer number is the
	// median over repetitions: each stage is measured once per pass, so
	// one hiccup would otherwise land whole in the budget.
	var passes [][]layerTime
	var passMetrics []map[string]float64
	for i := 0; i < stageReps; i++ {
		layers, pm, err := stageSequence(tr, root, j, m["obsserve.publishes"], &out)
		if err != nil {
			return out, err
		}
		passes, passMetrics = append(passes, layers), append(passMetrics, pm)
	}
	tr.end(root)
	for k := range passMetrics[0] {
		var vs []float64
		for _, pm := range passMetrics {
			vs = append(vs, pm[k])
		}
		m[k] = median(vs)
	}
	layers := make([]layerTime, len(passes[0]))
	for i := range layers {
		var vs []float64
		for _, p := range passes {
			vs = append(vs, p[i].Seconds)
		}
		layers[i] = layerTime{passes[0][i].Name, median(vs)}
	}

	sum := 0.0
	for _, l := range layers {
		sum += l.Seconds
	}
	m["budget.stage_sum_ratio"] = sum / e2e
	out.Layers = layers
	out.Spans = tr.snapshot()
	return out, nil
}

// tracedE2E is one end-to-end run with its calls spanned, the heap-depth
// sampler running, and runtime counters read around it; afterwards the
// finished observatory's read path is timed in process.
func tracedE2E(tr *tracer, root int, j job, e2e float64, out *traceResult) error {
	m := out.Metrics
	runtime.GC()
	dir, err := j.ckptDir(e2eReps)
	if err != nil {
		return err
	}
	gc0, cpu0, alloc0, _ := runtimeSample()
	sp := tr.begin("e2e.traced", root)
	s := tr.begin("core.NewObservatory", sp)
	o, err := core.NewObservatory(j.observatoryOptions(dir))
	tr.end(s)
	if err != nil {
		return err
	}
	defer o.Close()
	depth := sampleDepth(o.Metrics().Registry(), runtime.GOMAXPROCS(0))
	s = tr.begin("core.Observatory.Run", sp)
	res, err := o.Run(context.Background())
	run := tr.end(s)
	m["stream.reorder_depth_max"] = float64(depth.finish())
	tr.end(sp)
	gc1, cpu1, alloc1, _ := runtimeSample()
	if dir != "" {
		os.RemoveAll(dir)
	}
	if err != nil {
		return err
	}
	d, err := digestJSON(res.JSON())
	if err != nil {
		return err
	}
	out.check("traced e2e run", d == j.Ref.Digest)
	records := float64(res.Records + res.Dropped)
	m["runtime.gc_cpu_fraction"] = (gc1 - gc0) / (cpu1 - cpu0)
	m["runtime.alloc_bytes_per_rec"] = (alloc1 - alloc0) / records
	m["budget.trace_overhead_ratio"] = run/e2e - 1
	st := o.Metrics().Stats()
	m["stream.pool_miss_ratio"] = float64(st.PoolMisses) / float64(max(st.PoolGets, 1))
	m["stream.flushed_batches"] = float64(st.FlushedBatches)
	m["obsserve.publishes"] = float64(o.Metrics().Registry().Counter("scraperlab_snapshots_published_total", "").Value())

	s = tr.begin("obsserve.reads", root)
	lat, bad := readLatencies(o.Handler(), readProbes)
	tr.end(s)
	out.Attempted += len(lat)
	out.Failed += bad
	m["obsserve.read_p50_ms"], _ = percentile(lat, 50)
	m["obsserve.read_p90_ms"], _ = percentile(lat, 90)
	return nil
}

// stageReps is how many times the stage-isolated sequence runs.
const stageReps = 3

// stageSequence runs each layer alone over the job's files and returns
// the stage budget and the per-layer metrics it measured. publishes is
// how many snapshots the end-to-end run published, each a snapshot and
// render of every analyzer.
func stageSequence(tr *tracer, root int, j job, publishes float64, out *traceResult) ([]layerTime, map[string]float64, error) {
	m := make(map[string]float64)
	runtime.GC()
	stages := tr.begin("stages", root)
	defer tr.end(stages)

	// Mappings stay open until every stage is done: decoded records may
	// borrow their strings from them.
	var maps []*mmapio.Mapping
	defer func() {
		for _, mp := range maps {
			mp.Close()
		}
	}()
	var mapS float64
	var inBytes int64
	for _, path := range j.Paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		s := tr.begin("mmapio.Map", stages)
		mp, err := mmapio.Map(f)
		mapS += tr.end(s)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		maps = append(maps, mp)
		inBytes += int64(len(mp.Bytes()))
	}
	m["mmapio.map_s"] = mapS

	srcs, err := buildSources(j, maps, true)
	if err != nil {
		return nil, nil, err
	}
	_, _, _, objs0 := runtimeSample()
	var decodeS float64
	perSrc := make([][]weblog.Record, len(srcs))
	decoded := 0
	for i, src := range srcs {
		s := tr.begin("stream.decode", stages)
		for {
			rec, err := src.Dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, fmt.Errorf("decoding %s: %w", src.Name, err)
			}
			perSrc[i] = append(perSrc[i], rec)
		}
		decodeS += tr.end(s)
		decoded += len(perSrc[i])
	}
	_, _, _, objs1 := runtimeSample()
	m["stream.decode_s"] = decodeS
	m["stream.decode_mb_per_s"] = float64(inBytes) / 1e6 / decodeS
	m["stream.decode_allocs_per_rec"] = (objs1 - objs0) / float64(decoded)

	var keepS float64
	kept := 0
	for i, recs := range perSrc {
		pre := weblog.NewPreprocessor()
		s := tr.begin("weblog.keep", stages)
		kept1 := recs[:0]
		for k := range recs {
			if pre.Keep(&recs[k]) {
				kept1 = append(kept1, recs[k])
			}
		}
		keepS += tr.end(s)
		perSrc[i] = kept1
		kept += len(kept1)
	}
	m["weblog.keep_s"] = keepS
	m["weblog.keep_drop_ratio"] = float64(decoded-kept) / float64(decoded)

	cm := agent.NewCachedMatcher(nil)
	enrich := enrichWith(cm)
	s := tr.begin("agent.match", stages)
	for _, recs := range perSrc {
		for k := range recs {
			enrich(&recs[k])
		}
	}
	matchS := tr.end(s)
	// A second pass over the now-warm memo prices a hit; the first pass's
	// excess over it, spread over the memo's growth, prices a miss.
	s = tr.begin("agent.match.warm", stages)
	for _, recs := range perSrc {
		for k := range recs {
			cm.Match(recs[k].UserAgent)
		}
	}
	warmS := tr.end(s)
	misses := float64(max(cm.Size(), 1))
	m["agent.match_s"] = matchS
	m["agent.match_hit_ratio"] = 1 - float64(cm.Size())/float64(kept)
	m["agent.match_miss_us"] = ((matchS-warmS)/misses + warmS/float64(kept)) * 1e6

	routeS, err := noopRun(tr, stages, j, maps)
	if err != nil {
		return nil, nil, err
	}
	routeS -= decodeS + keepS + matchS
	m["stream.route_s"] = routeS

	recs, seqs := timeOrder(perSrc)
	perSrc = nil
	layers := []layerTime{
		{"mmapio.map", mapS}, {"stream.decode", decodeS}, {"weblog.keep", keepS},
		{"agent.match", matchS}, {"stream.route", routeS},
	}
	skew := j.MaxSkew
	if skew == 0 {
		skew = stream.DefaultMaxSkew
	}
	var snapS, renderS float64
	var viewBytes int
	views := make(map[string]any, len(analyzerNames))
	for _, name := range analyzerNames {
		a, err := stream.NewAnalyzer(name, stream.AnalyzerOptions{})
		if err != nil {
			return nil, nil, err
		}
		s := tr.begin("stream.fold."+name, stages)
		st := a.NewState()
		foldAlone(st, recs, seqs, skew)
		fold := tr.end(s)
		m["stream.fold."+name+"_s"] = fold
		layers = append(layers, layerTime{"stream.fold." + name, fold})

		s = tr.begin("stream.snapshot."+name, stages)
		snap := a.Snapshot([]stream.ShardState{st})
		m["stream.snapshot."+name+"_s"] = tr.end(s)
		snapS += m["stream.snapshot."+name+"_s"]

		s = tr.begin("obsserve.render", stages)
		b, err := json.Marshal(stream.JSONView(snap))
		renderS += tr.end(s)
		if err != nil {
			return nil, nil, err
		}
		viewBytes += len(b)
		views[name] = json.RawMessage(b)
		d, err := digestBytes(b)
		if err != nil {
			return nil, nil, err
		}
		out.check("isolated "+name+" fold", d == j.Ref.Sections[name])
	}
	// A publish also encodes the whole set twice: once as the results the
	// API serves and once as the SSE delta (every view changed).
	for range 2 {
		s := tr.begin("obsserve.render", stages)
		_, err := json.Marshal(views)
		renderS += tr.end(s)
		if err != nil {
			return nil, nil, err
		}
	}
	m["obsserve.render_s"] = renderS
	m["obsserve.view_bytes"] = float64(viewBytes)
	layers = append(layers, layerTime{"obsserve.publish", publishes * (snapS + renderS)})

	mid, final, err := checkpointRun(tr, stages, j, maps)
	if err != nil {
		return nil, nil, err
	}
	all := ckptAcc{mid.capture + final.capture, mid.encode + final.encode, mid.write + final.write, mid.count + final.count, final.bytes}
	m["checkpoint.capture_s"] = all.capture / float64(max(all.count, 1))
	m["checkpoint.encode_s"] = all.encode / float64(max(all.count, 1))
	m["checkpoint.write_s"] = all.write / float64(max(all.count, 1))
	m["checkpoint.bytes"] = float64(all.bytes)
	m["checkpoint.count"] = float64(all.count)
	if j.Checkpoint {
		// The end-to-end run checkpoints once, at the end.
		layers = append(layers, layerTime{"checkpoint", final.capture + final.encode + final.write})
	}
	return layers, m, nil
}

// foldAlone folds time-ordered records into one shard state the way a
// shard worker does: foldRun records per ApplyBatch call (per-record
// Apply for states without it), then — when reordering is on — an
// Advance to the last record's time minus the reorder window, a bound no
// later record undercuts.
func foldAlone(st stream.ShardState, recs []weblog.Record, seqs []uint64, skew time.Duration) {
	ba, batched := st.(stream.BatchApplier)
	wo, observes := st.(stream.WatermarkObserver)
	for i := 0; i < len(recs); i += foldRun {
		k := min(i+foldRun, len(recs))
		if batched {
			ba.ApplyBatch(recs[i:k], seqs[i:k])
		} else {
			for x := i; x < k; x++ {
				st.Apply(&recs[x], seqs[x])
			}
		}
		if observes && skew > 0 {
			wo.Advance(recs[k-1].Time.Add(-skew))
		}
	}
}

// timeOrder concatenates the per-source kept records in source order,
// stamps each with the sequence number the fan-in gives it (source
// index from bit 44 up, per-source position below), and orders them
// by (time, sequence) — the order every shard folds in.
func timeOrder(perSrc [][]weblog.Record) ([]weblog.Record, []uint64) {
	n := 0
	for _, r := range perSrc {
		n += len(r)
	}
	flat := make([]*weblog.Record, 0, n)
	seq := make([]uint64, 0, n)
	for i, rs := range perSrc {
		for k := range rs {
			flat = append(flat, &rs[k])
			seq = append(seq, uint64(i)<<44|uint64(k+1))
		}
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return flat[idx[a]].Time.Before(flat[idx[b]].Time) })
	recs := make([]weblog.Record, n)
	seqs := make([]uint64, n)
	for i, x := range idx {
		recs[i], seqs[i] = *flat[x], seq[x]
	}
	return recs, seqs
}

// noopRun is a production-wired pipeline over fresh decoders of the same
// mappings with a fold that does nothing: decode, keep, match and routing.
func noopRun(tr *tracer, parent int, j job, maps []*mmapio.Mapping) (float64, error) {
	srcs, err := buildSources(j, maps, true)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	p := stream.NewPipeline(stream.Options{
		MaxSkew:   j.MaxSkew,
		Keep:      weblog.NewPreprocessor().Keep,
		NewKeep:   func() func(*weblog.Record) bool { return weblog.NewPreprocessor().Keep },
		Enrich:    enrichWith(agent.NewCachedMatcher(nil)),
		Analyzers: []stream.Analyzer{noopAnalyzer{}},
	})
	s := tr.begin("stream.pipeline.noop", parent)
	_, err = p.RunSources(context.Background(), srcs)
	return tr.end(s), err
}

// traceCheckpointEvery is the capture cadence of the traced checkpoint
// run, which prices captures taken mid-run as well as the final one.
const traceCheckpointEvery = time.Second

// checkpointRun is a production-wired pipeline over one source per file
// (chunked sources have no resume offsets) with core's checkpoint loop
// — a capture each traceCheckpointEvery while RunSources ingests, and
// one after it — done by hand so every call gets a span. It returns the
// mid-run captures and the final one separately.
func checkpointRun(tr *tracer, parent int, j job, maps []*mmapio.Mapping) (mid, final ckptAcc, err error) {
	srcs, err := buildSources(j, maps, false)
	if err != nil {
		return mid, final, err
	}
	dir := filepath.Join(j.Scratch, "ckpt-trace")
	if err := os.RemoveAll(dir); err != nil {
		return mid, final, err
	}
	defer os.RemoveAll(dir)
	w, err := checkpoint.NewWriter(dir, core.DefaultCheckpointKeep)
	if err != nil {
		return mid, final, err
	}
	opts := j.streamOptions()
	opts.DecodeParallelism = 0
	p, err := core.StreamPipeline(opts)
	if err != nil {
		return mid, final, err
	}
	runtime.GC()
	run := tr.begin("checkpoint.run", parent)
	stop, done := make(chan struct{}), make(chan struct{})
	var loopErr error
	go func() {
		defer close(done)
		t := time.NewTicker(traceCheckpointEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := captureTraced(tr, run, p, w, &mid); err != nil && loopErr == nil {
					loopErr = err
				}
			}
		}
	}()
	_, err = p.RunSources(context.Background(), srcs)
	close(stop)
	<-done
	if err == nil {
		err = loopErr
	}
	if err == nil {
		err = captureTraced(tr, run, p, w, &final)
	}
	tr.end(run)
	return mid, final, err
}
