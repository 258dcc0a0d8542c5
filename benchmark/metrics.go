package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// metricDef is one row of BENCHMARK.json. The tables below are the source
// the file is checked against (TestBenchmarkJSONMatchesSource), and the
// source -compare takes its bounds from.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the numbers a user of the server sees. Every workload
// reports every one, and none can be zero. Failures are not a metric here:
// they are the result's failed/attempted/correct fields. The tail is gated
// as a ratio to the median and BE throughput is not gated at all, because
// on this sandbox the absolute numbers swing by more than any admissible
// bound when the host slows down for a few minutes; see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "ops/s", "higher", 0.25},
	{"lc_p50_us", "us", "lower", 0.25},
	{"lc_tail_ratio", "ratio", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"mem_mb", "MiB", "lower", 0.25},
}

// perLayer are the traced run's numbers, outermost layer first. README.md
// defines each and names the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{Name: "tailclient.do_ns", Unit: "ns", Better: "lower"},
	{Name: "tailclient.self_ns", Unit: "ns", Better: "lower"},
	{Name: "tailclient.allocs", Unit: "count", Better: "lower"},
	{Name: "tailclient.attempts_per_op", Unit: "ratio", Better: "lower"},
	{Name: "tailclient.conns_evicted", Unit: "count", Better: "lower"},

	{Name: "liveserver.wire_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "liveserver.wire_self_ns", Unit: "ns", Better: "lower"},
	{Name: "liveserver.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "liveserver.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "liveserver.handle_line_ns", Unit: "ns", Better: "lower"},
	{Name: "liveserver.handle_line_allocs", Unit: "count", Better: "lower"},
	{Name: "liveserver.self_ns", Unit: "ns", Better: "lower"},
	{Name: "liveserver.handle_line_par_ns", Unit: "ns", Better: "lower"},
	{Name: "liveserver.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "liveserver.stats2_ns", Unit: "ns", Better: "lower"},

	{Name: "shard.route_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.do_empty_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.do_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.do_allocs", Unit: "count", Better: "lower"},
	{Name: "shard.body_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.self_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.mget_legs_per_op", Unit: "count", Better: "lower"},
	{Name: "shard.rejected", Unit: "count", Better: "lower"},
	{Name: "shard.expired", Unit: "count", Better: "lower"},
	{Name: "shard.failed", Unit: "count", Better: "lower"},
	{Name: "shard.unavailable", Unit: "count", Better: "lower"},
	{Name: "shard.server_lc_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.server_lc_p99_us", Unit: "us", Better: "lower"},
	{Name: "shard.client_server_gap_us", Unit: "us", Better: "lower"},

	{Name: "preemptible.submit_wait_ns", Unit: "ns", Better: "lower"},
	{Name: "preemptible.submit_allocs", Unit: "count", Better: "lower"},
	{Name: "preemptible.launch_ns", Unit: "ns", Better: "lower"},
	{Name: "preemptible.launch_allocs", Unit: "count", Better: "lower"},
	{Name: "preemptible.yield_resume_ns", Unit: "ns", Better: "lower"},
	{Name: "preemptible.tax_ns", Unit: "ns", Better: "lower"},
	{Name: "preemptible.preemptions", Unit: "count", Better: "lower"},
	{Name: "preemptible.preemptions_per_be_op", Unit: "ratio", Better: "lower"},

	{Name: "mica.get_ns", Unit: "ns", Better: "lower"},
	{Name: "mica.set_ns", Unit: "ns", Better: "lower"},
	{Name: "mica.get_allocs", Unit: "count", Better: "lower"},
	{Name: "mica.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "mica.index_evictions", Unit: "count", Better: "lower"},

	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.sync_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.device_sync_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_allocs", Unit: "count", Better: "lower"},
	{Name: "wal.appends", Unit: "count", Better: "higher"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.appends_per_fsync", Unit: "ratio", Better: "higher"},
	{Name: "wal.snapshots", Unit: "count", Better: "higher"},
	{Name: "wal.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.recovered_records", Unit: "count", Better: "lower"},

	{Name: "bejob.compress_kb_ns", Unit: "ns", Better: "lower"},
	{Name: "bejob.be_kb_s", Unit: "KiB/s", Better: "higher"},
	{Name: "bejob.core_share", Unit: "ratio", Better: "higher"},

	{Name: "loadgen.lc_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.goodput_kb_s", Unit: "KiB/s", Better: "higher"},
	{Name: "loadgen.op_gen_ns", Unit: "ns", Better: "lower"},
	{Name: "loadgen.validate_ns", Unit: "ns", Better: "lower"},
	{Name: "loadgen.clock_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "openloop.rate_ops_s", Unit: "ops/s", Better: "higher"},
	{Name: "openloop.p50_us", Unit: "us", Better: "lower"},
	{Name: "openloop.p99_us", Unit: "us", Better: "lower"},
	{Name: "openloop.gen_lag_p99_us", Unit: "us", Better: "lower"},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line. The driver
// reads exactly correct, attempted, failed and metrics; -out files carry
// the same object with the run's identity beside it.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one line of an -out file.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Machine  machine `json:"machine"`
	result
}

// metricSet collects one run's values and checks them against a table: a
// run must report every metric of its table exactly once, finite, under
// the table's unit.
type metricSet struct {
	defs []metricDef
	vals map[string]value
	errs []string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]value, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name != name {
			continue
		}
		if _, dup := m.vals[name]; dup {
			m.errs = append(m.errs, "metric reported twice: "+name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m.errs = append(m.errs, fmt.Sprintf("metric %s is %v", name, v))
			v = 0
		}
		m.vals[name] = value{Value: v, Unit: d.Unit}
		return
	}
	m.errs = append(m.errs, "metric not in the table: "+name)
}

// finish reports what is wrong with the set: anything set() refused, and
// every table metric that was never set.
func (m *metricSet) finish() []string {
	errs := m.errs
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			errs = append(errs, "metric never reported: "+d.Name)
		}
	}
	return errs
}

// print writes the values in table order, one per line, name value unit.
func (m *metricSet) print(w io.Writer) {
	for _, d := range m.defs {
		if v, ok := m.vals[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain numbers, strings and maps: cannot fail
	}
	return string(b)
}

// quartiles returns the first, second and third quartile of vals exactly as
// Python's statistics.quantiles(vals, n=4) does (the exclusive method), so
// -compare reports the spread the driver computes.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
