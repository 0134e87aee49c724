package main

import (
	"context"
	"testing"

	"repro/internal/core"
)

// tinyHotJob generates the tiny hot-UA workload and returns its job.
func tinyHotJob(t *testing.T) job {
	t.Helper()
	dir := t.TempDir()
	in, err := genHotUA(dir, 11, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	return job{Workload: wHotUA, Paths: in.Paths, Format: "jsonl", DecodeParallelism: 2, Scratch: dir}
}

// TestReferenceAgreesWithBatch checks that the serial reference matches
// the batch methodology and that a parallel run reproduces its digest.
func TestReferenceAgreesWithBatch(t *testing.T) {
	j := tinyHotJob(t)
	ref, err := runReference(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Mismatches) != 0 {
		t.Fatalf("reference disagrees with the batch methodology on %v", ref.Mismatches)
	}
	res, err := core.StreamAnalyzeAllFiles(context.Background(), j.Paths, j.streamOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("the scanner user agent was not dropped")
	}
	if d, err := digestJSON(res.JSON()); err != nil || d != ref.Digest {
		t.Fatalf("chunked two-decoder run digest %s, reference %s (%v)", d, ref.Digest, err)
	}
}

// TestDigestCatchesFlippedField checks that changing any one field of a
// result changes its digest, while the fields that legitimately differ
// between runs (shard count, ingestion counters) do not.
func TestDigestCatchesFlippedField(t *testing.T) {
	j := tinyHotJob(t)
	res, err := core.StreamAnalyzeAllFiles(context.Background(), j.Paths, j.streamOptions())
	if err != nil {
		t.Fatal(err)
	}
	base, err := digestJSON(res.JSON())
	if err != nil {
		t.Fatal(err)
	}
	m := res.JSON()
	m["shards"] = 99
	m["ingest"] = map[string]int{"decoded": 1}
	if d, _ := digestJSON(m); d != base {
		t.Fatal("shard count and ingestion counters must not change the digest")
	}
	m = res.JSON()
	m["dropped"] = res.Dropped + 1
	if d, _ := digestJSON(m); d == base {
		t.Fatal("a flipped top-level count kept the digest")
	}
	m = res.JSON()
	view := m["compliance"].(map[string]any)
	view["tuples"] = view["tuples"].(int) + 1
	if d, _ := digestJSON(m); d == base {
		t.Fatal("a flipped field inside an analyzer view kept the digest")
	}
}

// TestBatchCheckCatchesFlippedField checks that the reference's batch
// comparison notices one record changed on one side.
func TestBatchCheckCatchesFlippedField(t *testing.T) {
	j := tinyHotJob(t)
	d, err := readDataset(j)
	if err != nil {
		t.Fatal(err)
	}
	opts := j.streamOptions()
	opts.Shards, opts.DecodeParallelism = 1, 1
	res, err := core.StreamAnalyzeAllFiles(context.Background(), j.Paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bad := computeBatchWants(d).mismatches(res); len(bad) != 0 {
		t.Fatalf("unmodified input disagrees on %v", bad)
	}
	for i := range d.Records {
		if d.Records[i].UserAgent != hotScannerUA && d.Records[i].Path != "/robots.txt" {
			d.Records[i].Path = "/robots.txt"
			break
		}
	}
	if bad := computeBatchWants(d).mismatches(res); len(bad) == 0 {
		t.Fatal("one flipped record went unnoticed")
	}
}
