package main

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
)

// fileDigests hashes every generated file by base name.
func fileDigests(t *testing.T, paths []string) map[string][32]byte {
	t.Helper()
	out := make(map[string][32]byte)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = sha256.Sum256(b)
	}
	return out
}

// TestGeneratorsDeterministic checks that a seed fully determines the
// generated files, and that another seed changes them.
func TestGeneratorsDeterministic(t *testing.T) {
	gens := map[string]func(dir string, seed int64) ([]string, error){
		wEstate: func(dir string, seed int64) ([]string, error) {
			in, err := genEstate(dir, seed, tinySizes)
			return in.Paths, err
		},
		wHotUA: func(dir string, seed int64) ([]string, error) {
			in, err := genHotUA(dir, seed, tinySizes)
			return in.Paths, err
		},
		wFollow: func(dir string, seed int64) ([]string, error) {
			fi, err := genFollow(dir, seed, tinySizes, 2)
			if err != nil {
				return nil, err
			}
			src := filepath.Join(dir, "source.clf")
			return []string{src}, os.WriteFile(src, fi.Src, 0o644)
		},
	}
	for name, gen := range gens {
		var sums []map[string][32]byte
		for _, seed := range []int64{5, 5, 6} {
			paths, err := gen(t.TempDir(), seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sums = append(sums, fileDigests(t, paths))
		}
		for f, d := range sums[0] {
			if sums[1][f] != d {
				t.Errorf("%s: %s differs between two runs of seed 5", name, f)
			}
		}
		same := len(sums[0]) == len(sums[2])
		for f, d := range sums[0] {
			same = same && sums[2][f] == d
		}
		if same {
			t.Errorf("%s: seeds 5 and 6 generated identical files", name)
		}
	}
}

// TestWhyPropertiesHold generates every workload at its frozen size for
// two seeds and checks the properties its Why claims.
func TestWhyPropertiesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full-size workloads")
	}
	for _, seed := range []int64{1, 2} {
		est, err := genEstate(t.TempDir(), seed, frozenSizes)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := genHotUA(t.TempDir(), seed, frozenSizes)
		if err != nil {
			t.Fatal(err)
		}
		fol, err := genFollow(t.TempDir(), seed, frozenSizes, 20)
		if err != nil {
			t.Fatal(err)
		}
		for name, in := range map[string]inputs{wEstate: est, wHotUA: hot, wFollow: fol.inputs} {
			if err := checkWhy(name, in.Props, in.Records, frozenSizes); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			t.Logf("seed %d %s: %d records, %+v", seed, name, in.Records, in.Props)
		}
		if hot.Props.DistinctUAs != 16 || hot.Props.Tuples != 512 || hot.Props.ScannerUAs != 1 {
			t.Errorf("seed %d: hot-UA cast %+v, want 16 UAs (1 scanner) over 512 tuples", seed, hot.Props)
		}
	}
}

// TestCheckWhyRejects checks that inputs without a workload's claimed
// properties are refused.
func TestCheckWhyRejects(t *testing.T) {
	for _, c := range []struct {
		name    string
		p       props
		records int
	}{
		{wEstate, props{Files: 35, DistinctUAs: 30_000, Tuples: 60_000}, 1},
		{wEstate, props{Files: 36, DistinctUAs: 70_000, Tuples: 60_000}, 1},
		{wEstate, props{Files: 36, DistinctUAs: 30_000, Tuples: 40_000}, 1},
		{wHotUA, props{DistinctUAs: 17, ScannerUAs: 1}, 1},
		{wHotUA, props{DistinctUAs: 16}, 1},
		{wHotUA, props{DistinctUAs: 16, ScannerUAs: 1, MaxDisorder: 31e9}, 1},
		{wFollow, props{MaxDisorder: 1}, 1},
		{wFollow, props{ScheduledRecords: 2}, 1},
	} {
		if err := checkWhy(c.name, c.p, c.records, frozenSizes); err == nil {
			t.Errorf("%s: %+v accepted", c.name, c.p)
		}
	}
}
