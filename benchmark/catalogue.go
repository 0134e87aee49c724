package main

import "time"

// workload is one set of generated inputs the benchmark runs.
type workload struct {
	Name string
	// Why records which layers the workload stresses and which it
	// bypasses (mirrored into BENCHMARK.json).
	Why string
}

// The workload names -workload accepts.
const (
	wEstate = "estate-csv"
	wHotUA  = "hotua-jsonl"
	wFollow = "follow-clf"
)

var workloads = []workload{
	{wEstate, "paper shape at half scale: 36 per-site CSV logs, ~28k distinct UAs (matcher misses), ~51k tuples, all five analyzers, a durable checkpoint per run"},
	{wHotUA, "one time-ordered JSONL file, 16 UAs (one a scanner) and 512 tuples: JSON decode and chunked reorder dominate, the matcher memo always hits, no checkpoints"},
	{wFollow, "live daemon tailing a CLF log fed open-loop (10k rec/s plus 25k bursts) while an SSE client and 40 reads/s watch: decode, flush and publish latency"},
}

// sizes fixes how big each workload's inputs are and how long the live
// workload appends. frozenSizes is what BENCHMARK.json's workloads run;
// tests shrink it.
type sizes struct {
	// EstateScale is the synth traffic scale of the estate (1.0 = ~700k
	// records, the paper's 40-day estate).
	EstateScale float64
	// HotRecords is the record count of the hot-UA JSONL file.
	HotRecords int
	// FollowRate is the live workload's baseline append rate (records/s),
	// delivered in followTick ticks.
	FollowRate int
	// FollowBurst is the record count of each burst, due every
	// FollowBurstEvery.
	FollowBurst      int
	FollowBurstEvery time.Duration
	// MinReps is the least number of timed one-shot repetitions, however
	// short -seconds is.
	MinReps int
	// SetupLaunches is how many daemon launches the live workload times
	// for setup_s (the last one is the measured run).
	SetupLaunches int
}

var frozenSizes = sizes{
	EstateScale:      0.5,
	HotRecords:       400_000,
	FollowRate:       10_000,
	FollowBurst:      25_000,
	FollowBurstEvery: 1250 * time.Millisecond,
	MinReps:          5,
	SetupLaunches:    21,
}

// followTick is the live appender's baseline tick.
const followTick = 10 * time.Millisecond

// metric is one reported number. Bound, for end-to-end metrics, is the
// share of the parent's median by which it may worsen before a change
// counts as a regression.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the numbers a user of the observatory sees; every run
// with tracing off reports all of them.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "rec/s", "higher", 0.20},
	{"cpu_s_per_mrec", "s/Mrec", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"freshness_p50_s", "s", "lower", 0.25},
	{"freshness_p99_s", "s", "lower", 0.25},
}

// analyzerNames are the five built-in analyzers, in registry order.
var analyzerNames = []string{"compliance", "cadence", "spoof", "session", "anomaly"}

// perLayer are the traced run's numbers, one group per layer; every run
// with tracing on reports all of them.
var perLayer = func() []metric {
	m := []metric{
		{"mmapio.map_s", "s", "lower", 0},
		{"stream.decode_s", "s", "lower", 0},
		{"stream.decode_mb_per_s", "MB/s", "higher", 0},
		{"stream.decode_allocs_per_rec", "allocs/rec", "lower", 0},
		{"weblog.keep_s", "s", "lower", 0},
		{"weblog.keep_drop_ratio", "fraction", "higher", 0},
		{"agent.match_s", "s", "lower", 0},
		{"agent.match_hit_ratio", "fraction", "higher", 0},
		{"agent.match_miss_us", "us", "lower", 0},
		{"stream.route_s", "s", "lower", 0},
		{"stream.reorder_depth_max", "records", "lower", 0},
		{"stream.pool_miss_ratio", "fraction", "lower", 0},
		{"stream.flushed_batches", "count", "lower", 0},
	}
	for _, a := range analyzerNames {
		m = append(m, metric{"stream.fold." + a + "_s", "s", "lower", 0})
	}
	for _, a := range analyzerNames {
		m = append(m, metric{"stream.snapshot." + a + "_s", "s", "lower", 0})
	}
	return append(m,
		metric{"obsserve.render_s", "s", "lower", 0},
		metric{"obsserve.view_bytes", "bytes", "lower", 0},
		metric{"obsserve.publishes", "count", "lower", 0},
		metric{"obsserve.read_p50_ms", "ms", "lower", 0},
		metric{"obsserve.read_p90_ms", "ms", "lower", 0},
		metric{"checkpoint.capture_s", "s", "lower", 0},
		metric{"checkpoint.encode_s", "s", "lower", 0},
		metric{"checkpoint.write_s", "s", "lower", 0},
		metric{"checkpoint.bytes", "bytes", "lower", 0},
		metric{"checkpoint.count", "count", "lower", 0},
		metric{"runtime.gc_cpu_fraction", "fraction", "lower", 0},
		metric{"runtime.alloc_bytes_per_rec", "bytes/rec", "lower", 0},
		metric{"budget.e2e_1proc_s", "s", "lower", 0},
		metric{"budget.stage_sum_ratio", "ratio", "lower", 0},
		metric{"budget.trace_overhead_ratio", "ratio", "lower", 0},
	)
}()

// unitOf returns a catalogued metric's unit ("" when unknown).
func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
