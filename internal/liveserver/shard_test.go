package liveserver

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/shard"
)

// keysOn generates n distinct keys that route to the given shard.
func keysOn(t *testing.T, g *shard.Group, shardIdx, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		if i > 100000 {
			t.Fatalf("could not find %d keys for shard %d", n, shardIdx)
		}
		k := fmt.Sprintf("key-%d-%d", shardIdx, i)
		if g.Route([]byte(k)) == shardIdx {
			out = append(out, k)
		}
	}
	return out
}

// checkConservation asserts the counter invariant on one quiesced
// STATS v2 document. Nothing may be in flight when it is called. Every
// shard and class balances — each request that reached a shard was
// counted under exactly one outcome, so a Do return path that stops
// counting breaks the equation — and every total equals the sum over
// shards.
func checkConservation(t *testing.T, s *Server) MetricsV2 {
	t.Helper()
	m := s.MetricsV2()
	for _, sh := range m.PerShard {
		for class, c := range sh.Classes {
			outcomes := c.Completed + c.RejectedNormal + c.RejectedBrownout + c.RejectedShed +
				c.Timeouts + c.Evicted + c.Failed + c.Unavailable +
				c.ExpiredQueued + c.ExpiredExecuting + c.Cancelled
			if c.Requests != outcomes {
				t.Errorf("shard %d %s: requests %d != Σ outcomes %d: %+v", sh.Shard, class, c.Requests, outcomes, c)
			}
		}
	}
	sums, _, _ := sumShardSeries(m)
	for class, total := range m.Totals {
		if got, want := stripQuantiles(total), stripQuantiles(sums[class]); got != want {
			t.Errorf("totals.%s != Σ shards:\n got %+v\nwant %+v", class, got, want)
		}
	}
	return m
}

// tally is a test client's own account of the traffic it drove — shard
// legs sent per class, and the outcome each one came back with — kept
// from the wire alone, so it is ground truth independent of any server
// counter. A request is one leg, except MGET: one leg per shard its
// keys route to, a failed leg showing as its keys' failure token.
type tally struct {
	c          *testClient
	g          *shard.Group
	legs       map[string]uint64 // class → shard legs sent
	outcomes   map[string]uint64 // "ok", or the "ERR ..." line / MGET failure token
	reattempts uint64
}

func newTally(c *testClient, g *shard.Group) *tally {
	return &tally{c: c, g: g, legs: map[string]uint64{}, outcomes: map[string]uint64{}}
}

// do sends req (a well-formed request that reaches admission) and
// records its legs and their outcomes.
func (ty *tally) do(t *testing.T, req string) string {
	t.Helper()
	resp := ty.c.roundTrip(t, req)
	fields, meta, _ := parseMeta(strings.Fields(req))
	class := "lc"
	if fields[0] == "COMPRESS" {
		class = "be"
	}
	record := func(outcome string) {
		ty.legs[class]++
		ty.outcomes[outcome]++
		if meta.attempt > 0 {
			ty.reattempts++
		}
	}
	switch {
	case fields[0] == "MGET":
		legs := map[int]string{} // shard → its leg's outcome
		for i, tok := range strings.Fields(resp)[1:] {
			outcome := "ok"
			if tok != "NOT_FOUND" && !strings.HasPrefix(tok, "=") {
				outcome = tok
			}
			legs[ty.g.Route([]byte(fields[1+i]))] = outcome
		}
		for _, outcome := range legs {
			record(outcome)
		}
	case strings.HasPrefix(resp, "ERR "):
		record(resp)
	default:
		record("ok")
	}
	return resp
}

// check asserts the server's counters agree with the tally (which must
// have carried all of the server's traffic), on a quiesced server.
func (ty *tally) check(t *testing.T, s *Server) {
	t.Helper()
	m := checkConservation(t, s)
	lc, be := m.Totals["lc"], m.Totals["be"]
	for _, row := range []struct {
		name      string
		got, want uint64
	}{
		{"lc requests", lc.Requests, ty.legs["lc"]},
		{"be requests", be.Requests, ty.legs["be"]},
		{"completed", lc.Completed + be.Completed, ty.outcomes["ok"]},
		{"unavailable", lc.Unavailable + be.Unavailable, ty.outcomes["ERR unavailable"] + ty.outcomes["UNAVAILABLE"]},
		{"expired", lc.ExpiredQueued + lc.ExpiredExecuting + be.ExpiredQueued + be.ExpiredExecuting,
			ty.outcomes["ERR deadline"] + ty.outcomes["DEADLINE"]},
		{"shed (rejected + timeouts + evicted)",
			lc.RejectedNormal + lc.RejectedBrownout + lc.RejectedShed + lc.Timeouts + lc.Evicted +
				be.RejectedNormal + be.RejectedBrownout + be.RejectedShed + be.Timeouts + be.Evicted,
			ty.outcomes["ERR overloaded"] + ty.outcomes["OVERLOADED"] + ty.outcomes["ERR brownout"] + ty.outcomes["BROWNOUT"]},
		{"failed", lc.Failed + be.Failed, ty.outcomes["ERR internal"] + ty.outcomes["ERROR"]},
		{"cancelled", lc.Cancelled + be.Cancelled, ty.outcomes["ERR cancelled"] + ty.outcomes["CANCELLED"]},
		{"reattempts", lc.Reattempts + be.Reattempts, ty.reattempts},
	} {
		if row.got != row.want {
			t.Errorf("%s: STATS2 says %d, the client counted %d (outcomes %v)", row.name, row.got, row.want, ty.outcomes)
		}
	}
}

// killToDead drives shard idx through its restart budget by hand until
// it escalates to terminal Dead (requires Supervise.MaxRestarts set and
// the supervisor disabled).
func killToDead(t *testing.T, s *Server, idx, budget int) {
	t.Helper()
	g := s.Group()
	for round := 0; round < budget; round++ {
		gen := g.Shard(idx).Generation()
		g.RestartShard(idx)
		waitFor(t, 3*time.Second, func() bool {
			return g.Shard(idx).Health() == shard.Healthy && g.Shard(idx).Generation() > gen
		}, "budgeted restart to complete")
	}
	g.RestartShard(idx)
	waitFor(t, 3*time.Second, func() bool { return g.Shard(idx).Health() == shard.Dead },
		"budget-exhausted shard to go Dead")
}

func TestMGetFanoutAndOrder(t *testing.T) {
	// MGET spans every shard its keys route to and returns one token per
	// key in request order: escaped values for hits, NOT_FOUND for
	// misses — regardless of how the keys interleave across shards.
	s, addr := startServer(t, Config{Shards: 4})
	c := newTally(dial(t, addr), s.Group())
	if got := c.do(t, "SET alpha one"); got != "OK" {
		t.Fatalf("SET → %q", got)
	}
	if got := c.do(t, "SET beta two words"); got != "OK" {
		t.Fatalf("SET → %q", got)
	}
	if got := c.do(t, "SET gamma three"); got != "OK" {
		t.Fatalf("SET → %q", got)
	}
	got := c.do(t, "MGET alpha nope beta gamma missing")
	want := "MVALUES =one NOT_FOUND =two+words =three NOT_FOUND"
	if got != want {
		t.Fatalf("MGET → %q, want %q", got, want)
	}
	// Each shard leg counts as one LC request; totals stay conserved.
	if n := s.Requests.MGet.Load(); n != 1 {
		t.Fatalf("MGet counter = %d", n)
	}
	c.check(t, s)
}

func TestMGetPartialFailure(t *testing.T) {
	// The bulkhead contract on the wire: with one shard Dead, an MGET
	// spanning all shards answers UNAVAILABLE for exactly the dead
	// shard's keys and real values for every other key — partial
	// failure, not all-or-nothing.
	s, addr := startServer(t, Config{
		Shards: 3,
		Supervise: shard.SuperviseConfig{
			MaxRestarts:   1,
			RestartWindow: time.Minute,
			RestartDrain:  100 * time.Millisecond,
		},
	})
	g := s.Group()
	c := newTally(dial(t, addr), g)
	keys := make([]string, g.N())
	for i := range keys {
		keys[i] = keysOn(t, g, i, 1)[0]
		if got := c.do(t, fmt.Sprintf("SET %s v%d", keys[i], i)); got != "OK" {
			t.Fatalf("SET %s → %q", keys[i], got)
		}
	}
	const victim = 1
	killToDead(t, s, victim, 1)

	got := c.do(t, "MGET "+strings.Join(keys, " "))
	toks := strings.Fields(got)
	if len(toks) != g.N()+1 || toks[0] != "MVALUES" {
		t.Fatalf("MGET → %q", got)
	}
	for i := range keys {
		want := fmt.Sprintf("=v%d", i)
		if i == victim {
			want = "UNAVAILABLE"
		}
		if toks[i+1] != want {
			t.Errorf("key %s (shard %d): token %q, want %q", keys[i], i, toks[i+1], want)
		}
	}
	// Single-key requests agree: the dead shard's keys answer
	// "ERR unavailable", sibling keys still serve (their values survived
	// the sibling's death — bulkheads share no store).
	if got := c.do(t, "GET "+keys[victim]); got != "ERR unavailable" {
		t.Fatalf("GET on dead shard → %q", got)
	}
	if got := c.do(t, "GET "+keys[0]); got != "VALUE v0" {
		t.Fatalf("GET on live shard → %q", got)
	}
	// STATS2 renders the outage as exactly one degraded shard block.
	m, err := DecodeMetricsV2(c.c.roundTrip(t, "STATS2"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range m.PerShard {
		want := "healthy"
		if sh.Shard == victim {
			want = "dead"
		}
		if sh.Health != want {
			t.Errorf("STATS2 shard %d health %q, want %q", sh.Shard, sh.Health, want)
		}
	}
	c.check(t, s)
}

// TestMGetReusedBuffersMatchReference drives one connection — one set
// of reused legs and token buffers — through a seeded run of MGETs that
// change width, mix hits, misses and duplicate keys, hold values that
// escape, and, once a shard is killed partway, put failure tokens and
// values into the same slots in turn. Every reply must equal one built
// with url.QueryEscape from the test's own model of the store.
func TestMGetReusedBuffersMatchReference(t *testing.T) {
	s, addr := startServer(t, Config{
		Shards: 4,
		Supervise: shard.SuperviseConfig{
			MaxRestarts:   1,
			RestartWindow: time.Minute,
			RestartDrain:  100 * time.Millisecond,
		},
	})
	g := s.Group()
	c := dial(t, addr)
	rng := rand.New(rand.NewSource(1))
	// Words of a value: bytes that escape ('+', '/', '%', '=', non-ASCII
	// and invalid UTF-8) beside ones that do not. No 'D' or 'A', so a
	// value never ends in the shape of a metadata token.
	words := []string{"a", "Z", "9", "+", "/", "%", "=", "-", "_", ".", "~", "&", "?", "#", "é", "ü", "\xff", "\xfe"}
	value := func() string {
		var b strings.Builder
		n := 1 + rng.Intn(40)
		if rng.Intn(8) == 0 {
			n = 500 + rng.Intn(1500) // fat: the buffers grow, then serve narrow values
		}
		for i := 0; i < n; i++ {
			if i > 0 && rng.Intn(6) == 0 {
				b.WriteByte(' ')
			}
			b.WriteString(words[rng.Intn(len(words))])
		}
		return b.String()
	}
	keys := make([]string, 48) // the last 12 are never set: misses
	model := map[string]string{}
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if i < 36 {
			v := value()
			if got := c.roundTrip(t, "SET "+keys[i]+" "+v); got != "OK" {
				t.Fatalf("SET %s → %q", keys[i], got)
			}
			model[keys[i]] = v
		}
	}
	const victim, steps = 2, 600
	dead := false
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			killToDead(t, s, victim, 1)
			dead = true
		}
		if rng.Intn(5) == 0 { // an overwrite changes a value's length between MGETs
			k, v := keys[rng.Intn(36)], value()
			if got := c.roundTrip(t, "SET "+k+" "+v); got == "OK" {
				model[k] = v
			} else if !dead || g.Route([]byte(k)) != victim || got != "ERR unavailable" {
				t.Fatalf("step %d: SET %s → %q", step, k, got)
			}
		}
		width := 1 + rng.Intn(32)
		req, want := "MGET", "MVALUES"
		for i := 0; i < width; i++ {
			k := keys[rng.Intn(len(keys))] // with replacement: duplicates
			req += " " + k
			v, hit := model[k]
			switch {
			case dead && g.Route([]byte(k)) == victim:
				want += " UNAVAILABLE"
			case hit:
				want += " =" + url.QueryEscape(v)
			default:
				want += " NOT_FOUND"
			}
		}
		if got := c.roundTrip(t, req); got != want {
			t.Fatalf("step %d: %s\n got %q\nwant %q", step, req, got, want)
		}
	}
}

// TestMGetBoundedRetention: one MGET of fat values does not stay pinned
// for the connection's lifetime — after the reply its buffers are let
// go, and a small MGET after it keeps only what it needs.
func TestMGetBoundedRetention(t *testing.T) {
	s, _ := startServer(t, Config{Shards: 4})
	big := strings.Repeat("v+", 30<<10) // 60 KiB, 90 KiB escaped
	for i := 0; i < 3; i++ {
		if got := s.HandleLine(fmt.Sprintf("SET big%d %s", i, big)); got != "OK" {
			t.Fatalf("SET big%d → %q", i, got)
		}
	}
	if got := s.HandleLine("SET small x"); got != "OK" {
		t.Fatalf("SET small → %q", got)
	}
	// A handler used as a connection uses it: one for every request.
	h := &handler{s: s}
	h.task = h.exec
	do := func(line string) string {
		h.out = h.out[:0]
		h.handle([]byte(line))
		return string(h.out)
	}
	fat := strings.Repeat(" ="+url.QueryEscape(big), 3)
	if got := do("MGET big0 big1 big2"); got != "MVALUES"+fat {
		t.Fatalf("fat MGET: %d reply bytes, want %d", len(got), len("MVALUES"+fat))
	}
	if n := h.mgetRetained(); n > flushBytes {
		t.Fatalf("after the fat MGET the connection keeps %d bytes of MGET buffers, bound %d", n, flushBytes)
	}
	if got := do("MGET small big9 small"); got != "MVALUES =x NOT_FOUND =x" {
		t.Fatalf("small MGET → %q", got)
	}
	if n := h.mgetRetained(); n == 0 || n > flushBytes {
		t.Fatalf("after the small MGET the connection keeps %d bytes of MGET buffers, want 1..%d", n, flushBytes)
	}
}

func TestShardRestartConservesCounters(t *testing.T) {
	// Counter conservation across a restart: the STATS2 counters balance
	// and agree with the client's own tally before a shard restart, after
	// it, and with traffic on both sides of it. The restarted shard's
	// pre-restart requests are not forgotten.
	s, addr := startServer(t, Config{
		Shards: 3,
		Supervise: shard.SuperviseConfig{
			MaxRestarts:   100,
			RestartWindow: time.Minute,
			RestartDrain:  100 * time.Millisecond,
		},
	})
	g := s.Group()
	c := newTally(dial(t, addr), g)
	traffic := func() {
		for i := 0; i < g.N(); i++ {
			k := keysOn(t, g, i, 1)[0]
			c.do(t, fmt.Sprintf("SET %s v", k))
			c.do(t, "GET "+k)
		}
		c.do(t, "PING")
		c.do(t, "COMPRESS 1")
		c.do(t, "MGET "+strings.Join(keysOn(t, g, 0, 2), " ")+" "+keysOn(t, g, 2, 1)[0])
		c.do(t, "GET re-check A1") // a reattempt, for the Reattempts column
		c.do(t, "GET doomed D1")   // already expired, for the expiry columns
	}
	shard1LC := func() uint64 { return s.MetricsV2().PerShard[1].Classes["lc"].Requests }
	traffic()
	c.check(t, s)
	pre := shard1LC()
	if pre == 0 {
		t.Fatal("no pre-restart traffic reached shard 1")
	}

	gen := g.Shard(1).Generation()
	g.RestartShard(1)
	// Mid-restart the shard's keys answer unavailable, and that is
	// counted like everything else.
	k1 := keysOn(t, g, 1, 1)[0]
	if got := c.do(t, "GET "+k1); got != "ERR unavailable" && got != "VALUE v" && got != "NOT_FOUND" {
		t.Fatalf("GET during restart → %q", got)
	}
	waitFor(t, 3*time.Second, func() bool {
		return g.Shard(1).Health() == shard.Healthy && g.Shard(1).Generation() > gen
	}, "manual shard restart")
	traffic()

	post := shard1LC()
	if post <= pre {
		t.Fatalf("shard 1 LC requests %d → %d: restart dropped counters", pre, post)
	}
	if got := g.Restarts(1); got != 1 {
		t.Fatalf("restarts = %d, want 1", got)
	}
	c.check(t, s)
}

// TestShardKillStormContainment is the fault-containment regression
// matrix: a seeded Gilbert–Elliott kill process repeatedly wedges one
// target shard while the supervisor detects, drains, and rebuilds it —
// and continuous LC traffic pinned to the sibling shards' keys never
// sees a single error. Sibling health, sibling restart counts, and the
// group counter-conservation invariant all survive the storm.
func TestShardKillStormContainment(t *testing.T) {
	const shards, victim = 3, 1
	sk := chaos.NewShardKill(chaos.ShardKillConfig{
		Seed:     20260808,
		Shards:   shards,
		MeanUp:   20, // ~200ms healthy between bursts at a 10ms tick
		MeanDown: 2,
		Targets:  []int{victim},
	})
	s, addr := startServer(t, Config{
		Shards:           shards,
		SuperviseEnabled: true,
		Supervise: shard.SuperviseConfig{
			HeartbeatInterval: 10 * time.Millisecond,
			HeartbeatTimeout:  10 * time.Millisecond,
			MissThreshold:     2,
			RestartDrain:      100 * time.Millisecond,
		},
	})
	g := s.Group()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// The storm: at the heartbeat's cadence, step every healthy shard's
	// kill chain and wedge the ones it condemns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for i := 0; i < shards; i++ {
				if g.Shard(i).Health() == shard.Healthy && sk.Step(i) {
					g.KillShard(i)
				}
			}
		}
	}()

	// Continuous keyed LC traffic on the siblings, raw (no testClient:
	// t.Fatal must not fire off the test goroutine).
	var mu sync.Mutex
	var sibErrs []string
	var sibOps int
	for _, sib := range []int{0, 2} {
		key := keysOn(t, g, sib, 1)[0]
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				mu.Lock()
				sibErrs = append(sibErrs, err.Error())
				mu.Unlock()
				return
			}
			defer conn.Close()
			sc := bufio.NewScanner(conn)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := conn.Write([]byte("GET " + key + "\n")); err != nil {
					return
				}
				if !sc.Scan() {
					return
				}
				mu.Lock()
				sibOps++
				if resp := sc.Text(); resp != "NOT_FOUND" {
					sibErrs = append(sibErrs, resp)
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}(key)
	}

	// Ride out at least two full kill→detect→rebuild cycles.
	waitFor(t, 15*time.Second, func() bool { return g.Restarts(victim) >= 2 },
		"storm to force two victim restarts")
	waitFor(t, 5*time.Second, func() bool {
		return g.Shard(victim).Health() == shard.Healthy
	}, "victim to recover after the storm")
	close(stop)
	wg.Wait()

	mu.Lock()
	errs, ops := sibErrs, sibOps
	mu.Unlock()
	if len(errs) > 0 {
		t.Fatalf("sibling traffic saw %d errors during the storm (first: %q)", len(errs), errs[0])
	}
	if ops == 0 {
		t.Fatal("sibling traffic never ran")
	}
	for _, sib := range []int{0, 2} {
		if h := g.Shard(sib).Health(); h != shard.Healthy {
			t.Errorf("sibling %d health %v after storm", sib, h)
		}
		if n := g.Restarts(sib); n != 0 {
			t.Errorf("sibling %d restarted %d times — kill mask leaked", sib, n)
		}
	}
	if sk.Kills(victim) == 0 {
		t.Error("injector reports no kills delivered")
	}
	checkConservation(t, s)
	t.Logf("storm: %d sibling ops error-free across %d victim restarts (%d kill verdicts)",
		ops, g.Restarts(victim), sk.Kills(victim))
}

func TestStatsV2ShardFields(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2})
	c := newTally(dial(t, addr), s.Group())
	c.do(t, "SET k v")
	m, err := DecodeMetricsV2(c.c.roundTrip(t, "STATS2"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 2 || len(m.PerShard) != 2 {
		t.Fatalf("STATS2 reports %d shards in %d blocks, want 2", m.Shards, len(m.PerShard))
	}
	for _, sh := range m.PerShard {
		if sh.Health != "healthy" || sh.Restarts != 0 || sh.Brownout != "normal" {
			t.Errorf("STATS2 shard %d block: %+v", sh.Shard, sh)
		}
		for _, class := range []string{"lc", "be"} {
			if got := sh.Breakers[class]; got != (BreakerSeries{State: "closed"}) {
				t.Errorf("STATS2 shard %d %s breaker = %+v, want closed with 0 trips", sh.Shard, class, got)
			}
		}
	}
	c.check(t, s)
}
