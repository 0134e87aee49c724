package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/checkfreq"
	"repro/internal/compliance"
	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/spoof"
	"repro/internal/stream"
	"repro/internal/weblog"
)

// job is everything a child process needs to run the system on one
// workload's generated files; it travels as JSON on the child's stdin.
type job struct {
	Workload string
	Paths    []string
	Format   string
	// Site is the CLF site label ("" means each file's base name).
	Site string
	// MaxSkew is the reorder window (0 = the stream default).
	MaxSkew           time.Duration
	DecodeParallelism int
	// Checkpoint makes every repetition checkpoint into a fresh
	// directory at the observatory's default interval, which outlasts a
	// run: each run ends with one durable checkpoint. (A ticker firing
	// mid-run would fire in some repetitions and not others, and split
	// the measurements into two populations.)
	Checkpoint bool
	PublishMin time.Duration
	// Scratch is a directory the child may fill and empty.
	Scratch string
	// Seconds and MinReps bound the timed repetitions.
	Seconds float64
	MinReps int
	// Ref is the serial reference every run must reproduce.
	Ref reference
}

// reference is the serial run's digest, per-analyzer section digests,
// and the sections that disagreed with the batch methodology.
type reference struct {
	Digest     string
	Sections   map[string]string
	Mismatches []string
}

// streamOptions is the production stream configuration of the job.
func (j job) streamOptions() core.StreamOptions {
	return core.StreamOptions{
		Format:            j.Format,
		MaxSkew:           j.MaxSkew,
		DecodeParallelism: j.DecodeParallelism,
		CLF:               weblog.CLFOptions{Site: j.Site},
		Analyzers:         analyzerNames,
	}
}

// observatoryOptions configures one repetition's observatory; ckptDir is
// that repetition's fresh checkpoint directory ("" when the job does not
// checkpoint).
func (j job) observatoryOptions(ckptDir string) core.ObservatoryOptions {
	s := j.streamOptions()
	if ckptDir != "" {
		s.CheckpointDir = ckptDir
	}
	return core.ObservatoryOptions{Stream: s, Paths: j.Paths, PublishMinInterval: j.PublishMin}
}

// ckptDir returns repetition rep's checkpoint directory, emptied.
func (j job) ckptDir(rep int) (string, error) {
	if !j.Checkpoint {
		return "", nil
	}
	dir := filepath.Join(j.Scratch, fmt.Sprintf("ckpt-%d", rep))
	return dir, os.RemoveAll(dir)
}

// siteLabel is the CLF site a file's records carry: the job's label, or
// the file's base name as the observatory defaults it.
func (j job) siteLabel(path string) string {
	if j.Site != "" {
		return j.Site
	}
	return strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
}

// canonical re-encodes JSON with sorted keys and no insignificant
// whitespace, dropping the top-level keys that legitimately differ
// between runs of the same input (ingestion counters, shard count).
func canonical(b []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if m, ok := v.(map[string]any); ok {
		delete(m, "ingest")
		delete(m, "shards")
	}
	return json.Marshal(v)
}

// digestJSON is the SHA-256 of v's canonical JSON.
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestBytes(b)
}

// digestBytes is the SHA-256 of the canonical form of JSON bytes.
func digestBytes(b []byte) (string, error) {
	c, err := canonical(b)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// sectionDigests digests each analyzer's JSON view.
func sectionDigests(res *stream.Results) (map[string]string, error) {
	out := make(map[string]string)
	for _, name := range res.Names() {
		d, err := digestJSON(stream.JSONView(res.Get(name)))
		if err != nil {
			return nil, err
		}
		out[name] = d
	}
	return out, nil
}

// readDataset decodes the job's files with the batch readers and orders
// the records the way the stream results are defined over them: files
// concatenated in path order, then stably sorted by time.
func readDataset(j job) (*weblog.Dataset, error) {
	all := &weblog.Dataset{}
	for _, path := range j.Paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		var d *weblog.Dataset
		switch j.Format {
		case "csv":
			d, err = weblog.ReadCSV(f)
		case "jsonl":
			d, err = weblog.ReadJSONL(f)
		case "clf":
			d, _, err = weblog.ReadCLF(f, weblog.CLFOptions{Site: j.siteLabel(path)})
		default:
			err = fmt.Errorf("unknown format %q", j.Format)
		}
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		all.Records = append(all.Records, d.Records...)
	}
	all.SortByTime()
	return all, nil
}

// batchWants is the batch methodology's answer for each analyzer the
// stream path reproduces.
type batchWants struct {
	stats    []checkfreq.BotStats
	byCat    []checkfreq.CategoryProportion
	findings []spoof.Finding
	counts   spoof.Counts
	evidence *spoof.Evidence
	sessions *session.Summary
	comp     map[compliance.Directive]compliance.Summary
}

// computeBatchWants preprocesses d exactly as the batch suite does (scanner
// filter, then matcher enrichment) and runs each batch analysis.
func computeBatchWants(d *weblog.Dataset) batchWants {
	pre := weblog.NewPreprocessor()
	matcher := agent.NewMatcher(nil)
	pre.Enrich = func(r *weblog.Record) {
		r.BotName, r.Category = "", ""
		if b, ok := matcher.Match(r.UserAgent); ok {
			r.BotName, r.Category = b.Name, b.Category.String()
		}
	}
	batch := pre.Run(d)
	w := batchWants{comp: make(map[compliance.Directive]compliance.Summary)}
	w.stats = checkfreq.Collect(batch, nil).Stats(nil)
	w.byCat = checkfreq.ByCategory(w.stats, nil)
	var det spoof.Detector
	w.findings = det.Detect(batch)
	w.counts = det.CountSplit(batch)
	w.evidence = spoof.Gather(batch)
	w.sessions = session.Summarize(session.Sessionize(batch, session.DefaultGap))
	cfg := compliance.DefaultConfig()
	for _, dir := range compliance.Directives {
		w.comp[dir] = compliance.Summarize(batch, dir, cfg)
	}
	return w
}

// mismatches lists the analyzer sections of res that disagree with the
// batch methodology.
func (w batchWants) mismatches(res *stream.Results) []string {
	var bad []string
	cad := res.Cadence()
	if !reflect.DeepEqual(cad.Stats(), w.stats) || !reflect.DeepEqual(cad.ByCategory(), w.byCat) {
		bad = append(bad, "cadence")
	}
	sp := res.Spoof()
	if !reflect.DeepEqual(sp.Findings, w.findings) || sp.Counts != w.counts || !reflect.DeepEqual(sp.Evidence, w.evidence) {
		bad = append(bad, "spoof")
	}
	if !reflect.DeepEqual(res.Sessions(), w.sessions) {
		bad = append(bad, "session")
	}
	for _, dir := range compliance.Directives {
		g, want := res.Compliance().Summary(dir), w.comp[dir]
		if !reflect.DeepEqual(g.Measurements, want.Measurements) || !reflect.DeepEqual(g.Access, want.Access) ||
			!reflect.DeepEqual(g.Checked, want.Checked) || !reflect.DeepEqual(g.Categories, want.Categories) {
			bad = append(bad, "compliance/"+dir.String())
		}
	}
	return bad
}

// runReference computes the job's reference: the batch methodology's
// answers first (its dataset is freed before the stream run, so the two
// never share the heap), then a serial stream run — one shard, one
// decoder, buffered reads, no checkpoints — checked against them.
func runReference(j job) (reference, error) {
	d, err := readDataset(j)
	if err != nil {
		return reference{}, err
	}
	want := computeBatchWants(d)
	opts := j.streamOptions()
	opts.Shards, opts.DecodeParallelism, opts.Mmap = 1, 1, core.MmapOff
	res, err := core.StreamAnalyzeAllFiles(context.Background(), j.Paths, opts)
	if err != nil {
		return reference{}, fmt.Errorf("reference run: %w", err)
	}
	ref := reference{Mismatches: want.mismatches(res)}
	if ref.Digest, err = digestJSON(res.JSON()); err != nil {
		return reference{}, err
	}
	if ref.Sections, err = sectionDigests(res); err != nil {
		return reference{}, err
	}
	return ref, nil
}
