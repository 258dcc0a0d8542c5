package main

import (
	"bufio"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/liveserver"
	"repro/preemptible"
)

// liar is a TCP front for a real server that, once armed, corrupts every
// nth answer in one particular way. It is how the validator is proven able
// to fail: a check that passes against every one of these lies checks
// nothing.
type liar struct {
	srv   *liveserver.Server
	lie   string
	every int64
	armed atomic.Bool
	n     atomic.Int64
	ln    net.Listener
	wg    sync.WaitGroup
}

func startLiar(t *testing.T, w workload, lie string) *liar {
	t.Helper()
	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := liveserver.New(rt, serverConfig(w, ""))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &liar{srv: srv, lie: lie, every: 50, ln: ln}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				defer c.Close()
				l.serve(c)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		l.wg.Wait()
		srv.Close()
		rt.Close()
	})
	return l
}

func (l *liar) serve(c net.Conn) {
	r := bufio.NewReaderSize(c, 64*1024)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\n")
		lying := l.armed.Load() && l.n.Add(1)%l.every == 0
		var resp string
		switch {
		case lying && l.lie == "dropped connection":
			return
		case lying && l.lie == "acknowledged but not applied" && strings.HasPrefix(line, "SET "):
			resp = "OK"
		default:
			resp = l.srv.HandleLine(line)
		}
		if lying {
			switch {
			case l.lie == "wrong value" && strings.HasPrefix(resp, "VALUE "):
				resp = resp[:len(resp)-1] + "!"
			case l.lie == "stale version" && strings.HasPrefix(resp, "VALUE v"):
				resp = "VALUE v00000000" + resp[len("VALUE v00000000"):]
			case l.lie == "short MGET" && strings.HasPrefix(resp, "MVALUES "):
				resp = resp[:strings.LastIndexByte(resp, ' ')]
			case l.lie == "missing key" && strings.HasPrefix(resp, "VALUE "):
				resp = "NOT_FOUND"
			case l.lie == "error reply":
				resp = "ERR overloaded"
			}
		}
		if _, err := c.Write([]byte(resp + "\n")); err != nil {
			return
		}
	}
}

// TestValidatorCatchesLies runs the real run path — set-up, warm-up, timed
// window, tally — against each lie and requires failed operations, and for
// a lie about data an incorrect result and a non-zero exit code; against no
// lie, none of them.
func TestValidatorCatchesLies(t *testing.T) {
	for _, c := range []struct{ workload, lie string }{
		{"kv_read", ""},
		{"kv_read", "wrong value"},
		{"kv_read", "stale version"},
		{"kv_read", "missing key"},
		{"kv_read", "acknowledged but not applied"},
		{"kv_read", "dropped connection"},
		{"kv_read", "error reply"},
		{"mget_fanout", "short MGET"},
	} {
		name := c.lie
		if name == "" {
			name = "honest"
		}
		t.Run(c.workload+"/"+name, func(t *testing.T) {
			w, _ := workloadByName(c.workload)
			l := startLiar(t, w, c.lie)
			cfg := config{seed: 5, seconds: 1, conns: 2, setUps: 1, workdir: t.TempDir(), addr: l.ln.Addr().String()}
			in, err := setUp(w, cfg.seed, cfg.conns, cfg.seconds, cfg.workdir, cfg.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			l.armed.Store(c.lie != "")
			in.runWindow(cfg.seconds)
			rec := record{}
			problems, notes := in.tally(&rec.result)
			rec.Correct = len(problems) == 0
			switch c.lie {
			case "":
				if rec.Failed != 0 || !rec.Correct || exitCode(rec) != 0 {
					t.Fatalf("an honest server failed: %d of %d, %v %v", rec.Failed, rec.Attempted, problems, notes)
				}
			case "dropped connection", "error reply":
				// Nothing wrong was said, but operations did not succeed.
				if rec.Failed == 0 || len(notes) == 0 {
					t.Fatalf("lie %q went unnoticed: failed %d of %d", c.lie, rec.Failed, rec.Attempted)
				}
				t.Logf("%d of %d failed; %s", rec.Failed, rec.Attempted, notes[0])
			default:
				if rec.Failed == 0 || rec.Correct || exitCode(rec) == 0 {
					t.Fatalf("lie %q went unnoticed: failed %d of %d, correct %v", c.lie, rec.Failed, rec.Attempted, rec.Correct)
				}
				t.Logf("%d of %d failed; %s", rec.Failed, rec.Attempted, problems[0])
			}
		})
	}
}

// TestReopenCatchesLostLog runs the durable workload's warm-up, then
// empties the WAL directory behind the server's back — the effect of a log
// that acknowledged what it never wrote — and requires the reopen check to
// count lost writes. Untouched, the same check must pass.
func TestReopenCatchesLostLog(t *testing.T) {
	w, _ := workloadByName("kv_durable")
	for _, lose := range []bool{false, true} {
		in, err := setUp(w, 9, 2, 1, t.TempDir(), "")
		if err != nil {
			t.Fatal(err)
		}
		if lose {
			shards, err := filepath.Glob(filepath.Join(in.walDir, "shard-*"))
			if err != nil || len(shards) == 0 {
				t.Fatalf("no shard WAL directories under %s (%v)", in.walDir, err)
			}
			// Closing first lets the server write what it has; then it is lost.
			in.srv.Close()
			for _, d := range shards {
				if err := os.RemoveAll(d); err != nil {
					t.Fatal(err)
				}
			}
		}
		var res result
		rcv, problems, err := in.verifyDurable(&res)
		in.close()
		if err != nil {
			t.Fatal(err)
		}
		if lose && (rcv.lost == 0 || res.Failed == 0 || len(problems) == 0) {
			t.Fatalf("an emptied WAL went unnoticed: %+v", rcv)
		}
		if !lose && (rcv.lost != 0 || rcv.records == 0) {
			t.Fatalf("an intact WAL failed the check: %+v %v", rcv, problems)
		}
	}
}
