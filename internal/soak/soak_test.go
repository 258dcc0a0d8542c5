package soak

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/liveserver"
)

// TestMain hooks the crash scenario's re-exec: when the parent soak
// spawns this test binary with SOAK_CRASH_SERVER=1, it must become the
// server child instead of running the tests.
func TestMain(m *testing.M) {
	ServerMainIfRequested()
	os.Exit(m.Run())
}

// TestPlanDeterministic is the reproducibility acceptance bar: the
// rendered fault schedule is a pure function of (seed, scenario,
// duration, shards) — two builds are byte-identical — and a different
// seed yields a different schedule.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{Seed: 1, Duration: 60 * time.Second, Scenario: ScenarioCombined, Shards: 4}
	a := BuildPlan(cfg).Encode()
	b := BuildPlan(cfg).Encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different plans:\n%s\n%s", a, b)
	}
	var p Plan
	if err := json.Unmarshal(a, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Wire) == 0 || len(p.Kills) == 0 {
		t.Fatalf("combined 60s plan should schedule both fault kinds: wire=%d kills=%d",
			len(p.Wire), len(p.Kills))
	}
	cfg.Seed = 2
	if bytes.Equal(a, BuildPlan(cfg).Encode()) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestPlanScenarioGating: quiet plans schedule nothing; wire and kills
// each schedule only their own fault kind.
func TestPlanScenarioGating(t *testing.T) {
	base := Config{Seed: 1, Duration: 30 * time.Second, Shards: 4}
	for _, tc := range []struct {
		scenario        string
		wantWire, wants bool
	}{
		{ScenarioQuiet, false, false},
		{ScenarioWire, true, false},
		{ScenarioKills, false, true},
		{ScenarioCrash, false, false},
	} {
		cfg := base
		cfg.Scenario = tc.scenario
		p := BuildPlan(cfg)
		if (len(p.Wire) > 0) != tc.wantWire || (len(p.Kills) > 0) != tc.wants {
			t.Fatalf("%s: wire=%d kills=%d", tc.scenario, len(p.Wire), len(p.Kills))
		}
		if (len(p.Crashes) > 0) != (tc.scenario == ScenarioCrash) {
			t.Fatalf("%s: crashes=%d", tc.scenario, len(p.Crashes))
		}
	}
	// Crash times are deterministic and strictly increasing within the
	// duration.
	cfg := base
	cfg.Scenario = ScenarioCrash
	p := BuildPlan(cfg)
	if !bytes.Equal(p.Encode(), BuildPlan(cfg).Encode()) {
		t.Fatal("crash plan not deterministic")
	}
	last := int64(0)
	for _, ev := range p.Crashes {
		if ev.AtMicros <= last || ev.AtMicros > cfg.Duration.Microseconds() {
			t.Fatalf("crash time %dus out of order or out of range", ev.AtMicros)
		}
		last = ev.AtMicros
	}
}

// TestSoakCombinedShort runs a brief combined-scenario soak — wire
// faults, shard kills, panic poisoning, real supervisor restarts —
// and demands zero invariant violations plus a well-formed appended
// report line.
func TestSoakCombinedShort(t *testing.T) {
	if testing.Short() {
		t.Skip("soak needs wall-clock time")
	}
	report := filepath.Join(t.TempDir(), "soak.jsonl")
	rep, err := Run(Config{
		Seed:       1,
		Duration:   2 * time.Second,
		Scenario:   ScenarioCombined,
		Shards:     2,
		Clients:    4,
		ReportPath: report,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationsTotal != 0 {
		t.Fatalf("%d invariant violations:\n%s", rep.ViolationsTotal,
			strings.Join(rep.Violations, "\n"))
	}
	if rep.Samples == 0 {
		t.Fatal("conservation sampler never ran")
	}
	var total uint64
	for _, n := range rep.Ops {
		total += n
	}
	if total == 0 {
		t.Fatal("no client ops completed")
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1 {
		t.Fatalf("report has %d lines, want 1 appended line", len(lines))
	}
	var fromDisk Report
	if err := json.Unmarshal([]byte(lines[0]), &fromDisk); err != nil {
		t.Fatalf("report line is not JSON: %v", err)
	}
	if !bytes.Equal(fromDisk.Plan.Encode(), rep.Plan.Encode()) {
		t.Fatal("report plan does not round-trip")
	}
}

// TestSoakCrashShort is the end-to-end durability acceptance: a short
// crash-scenario soak SIGKILLs the whole WAL-enabled server process at
// seeded times and must find zero acked-write losses after recovery —
// plus a schema-2 report line carrying the environment header and the
// crash ledger.
func TestSoakCrashShort(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak needs wall-clock time and process restarts")
	}
	report := filepath.Join(t.TempDir(), "soak.jsonl")
	rep, err := Run(Config{
		Seed:       1,
		Duration:   3 * time.Second,
		Scenario:   ScenarioCrash,
		Shards:     2,
		Clients:    4,
		WALDir:     t.TempDir(),
		ReportPath: report,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationsTotal != 0 {
		t.Fatalf("%d violation(s):\n%s", rep.ViolationsTotal, strings.Join(rep.Violations, "\n"))
	}
	if rep.Crashes == 0 {
		t.Fatal("no crashes executed — the scenario never killed the child")
	}
	if rep.AckedWrites == 0 {
		t.Fatal("no SETs acknowledged — the durability claim was vacuous")
	}
	if rep.VerifiedKeys == 0 {
		t.Fatal("no keys verified after recovery")
	}
	if rep.Schema != ReportSchemaVersion || rep.GoVersion == "" || rep.GoMaxProcs <= 0 {
		t.Fatalf("report header incomplete: schema=%d go=%q procs=%d",
			rep.Schema, rep.GoVersion, rep.GoMaxProcs)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var fromDisk Report
	if err := json.Unmarshal(bytes.TrimSpace(raw), &fromDisk); err != nil {
		t.Fatalf("report line is not JSON: %v", err)
	}
	if fromDisk.GoVersion != rep.GoVersion || fromDisk.Crashes != rep.Crashes {
		t.Fatalf("report did not round-trip: %+v", fromDisk)
	}
}

// TestSoakCrashCatchesLyingWAL proves the durability checker has
// teeth: with WALLie the child's WAL writes go nowhere, so it
// acknowledges SETs no crash can recover — and the soak must say so.
func TestSoakCrashCatchesLyingWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak needs wall-clock time and process restarts")
	}
	rep, err := Run(Config{
		Seed:     1,
		Duration: 1500 * time.Millisecond,
		Scenario: ScenarioCrash,
		Shards:   2,
		Clients:  4,
		WALDir:   t.TempDir(),
		WALLie:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AckedWrites == 0 {
		t.Fatal("lying server acked nothing — the test proved nothing")
	}
	if rep.ViolationsTotal == 0 {
		t.Fatal("lying WAL lost acked writes and the checker missed it")
	}
	found := false
	for _, s := range rep.Violations {
		if strings.Contains(s, "durability:") && strings.Contains(s, "lost") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations do not name the durability loss: %v", rep.Violations)
	}
}

// lyingConn is the deliberately broken build: a transport that answers
// the first GET with a fabricated value — the stand-in for any bug
// that lets a response reach the caller without having come from the
// server (a pool returning errored conns, a desynced reader, a torn
// write surfaced as success). The soak's model checker must catch it.
type lyingConn struct {
	net.Conn
	lied    *atomic.Bool // shared: the fleet lies exactly once
	pending atomic.Bool
}

func (c *lyingConn) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("GET ")) && c.lied.CompareAndSwap(false, true) {
		c.pending.Store(true)
	}
	return c.Conn.Write(p)
}

func (c *lyingConn) Read(p []byte) (int, error) {
	if c.pending.CompareAndSwap(true, false) {
		// Block for the real response, discard it, fabricate one.
		var sink [4096]byte
		if _, err := c.Conn.Read(sink[:]); err != nil {
			return 0, err
		}
		return copy(p, []byte("VALUE bogus-never-attempted\n")), nil
	}
	return c.Conn.Read(p)
}

// TestSoakCatchesLyingTransport proves the harness has teeth: with a
// broken transport wired in, the soak must report a model violation
// naming the fabricated value.
func TestSoakCatchesLyingTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("soak needs wall-clock time")
	}
	var lied atomic.Bool
	rep, err := Run(Config{
		Seed:     1,
		Duration: 1500 * time.Millisecond,
		Scenario: ScenarioQuiet,
		Shards:   2,
		Clients:  4,
		WrapConn: func(c net.Conn) net.Conn { return &lyingConn{Conn: c, lied: &lied} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lied.Load() {
		t.Fatal("the broken transport never got to lie — no GET went out?")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "bogus-never-attempted") {
			found = true
		}
	}
	if !found {
		t.Fatalf("model checker missed the fabricated value; violations: %v", rep.Violations)
	}
}

// TestConservationCheckerCatchesImbalance: a doctored STATS2 document
// whose totals disagree with the per-shard sum must be flagged.
func TestConservationCheckerCatchesImbalance(t *testing.T) {
	doc := liveserver.MetricsV2{
		Schema: liveserver.MetricsSchemaVersion,
		Shards: 2,
		Totals: map[string]liveserver.ClassSeries{
			"lc": {Requests: 5}, // shards below sum to 4
		},
		PerShard: []liveserver.ShardSeries{
			{Shard: 0, Classes: map[string]liveserver.ClassSeries{"lc": {Requests: 2}}},
			{Shard: 1, Classes: map[string]liveserver.ClassSeries{"lc": {Requests: 2}}},
		},
	}
	v := &violations{}
	checkConservation(doc, v)
	list, total := v.snapshot()
	if total == 0 {
		t.Fatal("imbalanced document passed the conservation check")
	}
	found := false
	for _, s := range list {
		if strings.Contains(s, "totals.lc.requests=5") && strings.Contains(s, "Σ shards=4") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations did not name the imbalance: %v", list)
	}

	// A balanced document passes.
	doc.Totals["lc"] = liveserver.ClassSeries{Requests: 4}
	v2 := &violations{}
	checkConservation(doc, v2)
	if _, n := v2.snapshot(); n != 0 {
		list, _ := v2.snapshot()
		t.Fatalf("balanced document flagged: %v", list)
	}

	// The schema-3 WAL counters are under the same contract.
	doc.WAL = liveserver.WALSeries{WalAppends: 9, RecoveryMillis: 3}
	doc.PerShard[0].WAL = liveserver.WALSeries{WalAppends: 4, RecoveryMillis: 1}
	doc.PerShard[1].WAL = liveserver.WALSeries{WalAppends: 4, RecoveryMillis: 1}
	v3 := &violations{}
	checkConservation(doc, v3)
	list3, n3 := v3.snapshot()
	if n3 != 2 {
		t.Fatalf("imbalanced WAL counters: want 2 violations, got %d: %v", n3, list3)
	}
	found = false
	for _, s := range list3 {
		if strings.Contains(s, "wal.wal_appends=9") && strings.Contains(s, "Σ shards=8") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations did not name the WAL imbalance: %v", list3)
	}
}

// TestViolationCap: the accumulator keeps counting past the cap but
// stops growing the list.
func TestViolationCap(t *testing.T) {
	v := &violations{}
	for i := 0; i < maxViolations+25; i++ {
		v.add("v%d", i)
	}
	list, total := v.snapshot()
	if len(list) != maxViolations || total != uint64(maxViolations+25) {
		t.Fatalf("len=%d total=%d, want %d/%d", len(list), total, maxViolations, maxViolations+25)
	}
}
