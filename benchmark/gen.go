package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/agent"
	"repro/internal/botnet"
	"repro/internal/synth"
	"repro/internal/weblog"
)

// inputs is one workload's generated files plus the properties the
// workload's Why claims for them, measured on the generated records.
type inputs struct {
	Paths   []string
	Records int
	Bytes   int64
	Props   props
}

// props are the measured input properties a workload is chosen for.
type props struct {
	Files       int
	DistinctUAs int
	Tuples      int
	ScannerUAs  int
	// MaxDisorder is the largest amount by which a record's timestamp
	// trails the latest timestamp before it in its file.
	MaxDisorder time.Duration
	// ScheduledRecords is the live workload's append-schedule total.
	ScheduledRecords int
}

// measure fills the record-level properties of ds (one dataset per
// file, in file order).
func measure(ds []*weblog.Dataset) props {
	uas := make(map[string]struct{})
	tuples := make(map[[3]string]struct{})
	scanner := weblog.NewPreprocessor()
	scanners := make(map[string]struct{})
	p := props{Files: len(ds)}
	for _, d := range ds {
		var latest time.Time
		for i := range d.Records {
			r := &d.Records[i]
			uas[r.UserAgent] = struct{}{}
			tuples[[3]string{r.ASN, r.IPHash, r.UserAgent}] = struct{}{}
			if !scanner.Keep(r) {
				scanners[r.UserAgent] = struct{}{}
			}
			if r.Time.After(latest) {
				latest = r.Time
			} else if lag := latest.Sub(r.Time); lag > p.MaxDisorder {
				p.MaxDisorder = lag
			}
		}
	}
	p.DistinctUAs, p.Tuples, p.ScannerUAs = len(uas), len(tuples), len(scanners)
	return p
}

// checkWhy verifies that generated inputs have the properties their
// workload is chosen for; a workload that lost them would measure
// something else under the same name.
func checkWhy(name string, p props, records int, sz sizes) error {
	switch name {
	case wEstate:
		if p.Files != 36 {
			return fmt.Errorf("%s: %d files, want 36 per-site logs", name, p.Files)
		}
		if min := int(50_000 * sz.EstateScale); p.DistinctUAs <= min || p.DistinctUAs >= agent.DefaultCacheEntries {
			return fmt.Errorf("%s: %d distinct UAs, want between %d and the %d-entry matcher memo cap", name, p.DistinctUAs, min, agent.DefaultCacheEntries)
		}
		if min := int(100_000 * sz.EstateScale); p.Tuples <= min {
			return fmt.Errorf("%s: %d tuples, want more than %d", name, p.Tuples, min)
		}
	case wHotUA:
		if p.DistinctUAs > 16 || p.ScannerUAs < 1 {
			return fmt.Errorf("%s: %d distinct UAs (%d scanners), want at most 16 with at least one scanner", name, p.DistinctUAs, p.ScannerUAs)
		}
		if p.MaxDisorder > 30*time.Second {
			return fmt.Errorf("%s: disorder %v exceeds 30s", name, p.MaxDisorder)
		}
	case wFollow:
		if p.MaxDisorder != 0 {
			return fmt.Errorf("%s: source is not time-sorted (disorder %v)", name, p.MaxDisorder)
		}
		if p.ScheduledRecords != records {
			return fmt.Errorf("%s: schedule appends %d records, source has %d", name, p.ScheduledRecords, records)
		}
	}
	return nil
}

// writeFile writes one dataset in the given wire format.
func writeFile(path, format string, d *weblog.Dataset) (int64, error) {
	var buf bytes.Buffer
	var err error
	switch format {
	case "csv":
		err = weblog.WriteCSV(&buf, d)
	case "jsonl":
		err = weblog.WriteJSONL(&buf, d)
	case "clf":
		err = weblog.WriteCLF(&buf, d)
	default:
		err = fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return 0, err
	}
	return int64(buf.Len()), writeSynced(path, buf.Bytes())
}

// writeSynced writes a file and waits for it to reach the disk, so the
// kernel's writeback of generated inputs happens now rather than in the
// middle of a measurement.
func writeSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// genEstate writes the synth 40-day estate as one time-ordered CSV log
// per site.
func genEstate(dir string, seed int64, sz sizes) (inputs, error) {
	g, err := synth.New(synth.Config{Seed: seed, Scale: sz.EstateScale})
	if err != nil {
		return inputs{}, err
	}
	bySite := make(map[string]*weblog.Dataset)
	var sites []string
	for _, r := range g.FullDataset().Records {
		d := bySite[r.Site]
		if d == nil {
			d = &weblog.Dataset{}
			bySite[r.Site] = d
			sites = append(sites, r.Site)
		}
		d.Records = append(d.Records, r)
	}
	sort.Strings(sites)
	in := inputs{}
	ds := make([]*weblog.Dataset, 0, len(sites))
	for _, site := range sites {
		path := filepath.Join(dir, site+".csv")
		n, err := writeFile(path, "csv", bySite[site])
		if err != nil {
			return inputs{}, err
		}
		in.Paths = append(in.Paths, path)
		in.Bytes += n
		in.Records += len(bySite[site].Records)
		ds = append(ds, bySite[site])
	}
	in.Props = measure(ds)
	return in, nil
}

// hotBrowserUAs and hotScannerUA complete the hot-UA cast beside
// twelve bot user agents from the calibrated population.
var (
	hotBrowserUAs = []string{
		"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/121.0 Safari/537.36",
		"Mozilla/5.0 (Macintosh; Intel Mac OS X 14_2) AppleWebKit/605.1.15 (KHTML, like Gecko) Version/17.2 Safari/605.1.15",
		"Mozilla/5.0 (X11; Linux x86_64; rv:122.0) Gecko/20100101 Firefox/122.0",
	}
	hotScannerUA = "Mozilla/5.0 (compatible; Nmap Scripting Engine; https://nmap.org/book/nse.html)"
	hotPaths     = []string{"/robots.txt", "/", "/news/2025/03", "/people/alice", "/page-data/app.json", "/page-data/index/page-data.json", "/dining/menu", "/events"}
	hotSites     = []string{"www", "cs", "law", "library"}
	hotASNs      = []string{"GOOGLE", "MICROSOFT-CORP-MSN-AS-BLOCK", "AMAZON-02", "OPENAI", "COMCAST-7922", "OVH", "HETZNER-AS"}
)

// genHotUA writes one time-ordered JSONL file: 512 client hashes, each
// bound to one of 16 user agents (one a scanner the keep filter drops),
// two records per second with up to 30 s of forward timestamp jitter.
func genHotUA(dir string, seed int64, sz sizes) (inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	pop, err := botnet.DefaultPopulation()
	if err != nil {
		return inputs{}, err
	}
	// The cast is fixed — the population's first twelve bots — so every
	// seed decodes lines of the same length mix; the seed draws only who
	// sends each record, when, and where.
	var uas []string
	for _, p := range pop.Profiles[:12] {
		uas = append(uas, p.Bot.UASample)
	}
	uas = append(append(uas, hotBrowserUAs...), hotScannerUA)
	type client struct{ ip, ua, asn string }
	clients := make([]client, 512)
	for i := range clients {
		clients[i] = client{
			ip:  fmt.Sprintf("%016x", rng.Uint64()),
			ua:  uas[i%len(uas)],
			asn: hotASNs[rng.Intn(len(hotASNs))],
		}
	}
	base := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	d := &weblog.Dataset{Records: make([]weblog.Record, sz.HotRecords)}
	for k := range d.Records {
		c := clients[rng.Intn(len(clients))]
		d.Records[k] = weblog.Record{
			UserAgent: c.ua,
			Time:      base.Add(time.Duration(k/2)*time.Second + time.Duration(rng.Intn(31))*time.Second),
			IPHash:    c.ip,
			ASN:       c.asn,
			Site:      hotSites[rng.Intn(len(hotSites))],
			Path:      hotPaths[rng.Intn(len(hotPaths))],
			Status:    200,
			Bytes:     int64(512 + rng.Intn(40_000)),
		}
	}
	path := filepath.Join(dir, "hot.jsonl")
	n, err := writeFile(path, "jsonl", d)
	if err != nil {
		return inputs{}, err
	}
	return inputs{Paths: []string{path}, Records: len(d.Records), Bytes: n, Props: measure([]*weblog.Dataset{d})}, nil
}

// appendTick is one scheduled append of the live workload: Lines
// consecutive source lines (bytes Src[Off:End]) written at Due after the
// run starts.
type appendTick struct {
	Due      time.Duration
	Lines    int
	Off, End int
}

// followInput is the live workload's complete CLF source and the
// open-loop schedule that appends it to the tailed file.
type followInput struct {
	inputs // Paths[0] is the tailed file, empty until the run appends
	Src    []byte
	Ticks  []appendTick
}

// burstPhaseSpan is the widest daemon ticker period (the 200 ms batch
// flush) over which burst phases are spread.
const burstPhaseSpan = 200 * time.Millisecond

// followSchedule lays out the open-loop appends for a run of the given
// length: FollowRate records/s in followTick ticks, plus a FollowBurst
// burst due every FollowBurstEvery starting half a period in. Burst k is
// shifted by frac(u + k·0.618)·200 ms, u drawn from rng: the golden-ratio
// sequence spreads the bursts evenly over the phases of the daemon's
// poll, flush and publish tickers whatever their offset from the
// schedule, so a run averages over phases instead of sampling a few.
func followSchedule(rng *rand.Rand, sz sizes, run time.Duration) []appendTick {
	perTick := int(int64(sz.FollowRate) * int64(followTick) / int64(time.Second))
	var ticks []appendTick
	for t := time.Duration(0); t < run; t += followTick {
		ticks = append(ticks, appendTick{Due: t, Lines: perTick})
	}
	phase := rng.Float64()
	for t := sz.FollowBurstEvery / 2; t < run; t += sz.FollowBurstEvery {
		shift := time.Duration(phase * float64(burstPhaseSpan))
		ticks = append(ticks, appendTick{Due: t + shift, Lines: sz.FollowBurst})
		_, phase = math.Modf(phase + 0.6180339887498949)
	}
	sort.SliceStable(ticks, func(i, j int) bool { return ticks[i].Due < ticks[j].Due })
	return ticks
}

// genFollow builds the live workload: the time-ordered prefix of a synth
// estate rendered as CLF, sized to the append schedule of a run lasting
// seconds.
func genFollow(dir string, seed int64, sz sizes, seconds float64) (followInput, error) {
	rng := rand.New(rand.NewSource(seed))
	ticks := followSchedule(rng, sz, time.Duration(seconds*float64(time.Second)))
	total := 0
	for _, t := range ticks {
		total += t.Lines
	}
	// synth yields ~700k records per unit of scale; ask for 30% headroom.
	g, err := synth.New(synth.Config{Seed: seed, Scale: float64(total) / 700_000 * 1.3})
	if err != nil {
		return followInput{}, err
	}
	d := g.FullDataset()
	if len(d.Records) < total {
		return followInput{}, fmt.Errorf("%s: synth produced %d records, schedule needs %d", wFollow, len(d.Records), total)
	}
	d.Records = d.Records[:total]
	var src bytes.Buffer
	if err := weblog.WriteCLF(&src, d); err != nil {
		return followInput{}, err
	}
	b := src.Bytes()
	off := 0
	for i := range ticks {
		ticks[i].Off = off
		for n := 0; n < ticks[i].Lines; n++ {
			off += bytes.IndexByte(b[off:], '\n') + 1
		}
		ticks[i].End = off
	}
	tailed := filepath.Join(dir, "www.log")
	if err := os.WriteFile(tailed, nil, 0o644); err != nil {
		return followInput{}, err
	}
	p := measure([]*weblog.Dataset{d})
	p.ScheduledRecords = total
	return followInput{
		inputs: inputs{Paths: []string{tailed}, Records: total, Bytes: int64(len(b)), Props: p},
		Src:    b,
		Ticks:  ticks,
	}, nil
}
