package liveserver

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bejob"
	"repro/internal/shard"
	"repro/preemptible"
)

// The request path as it was on strings — parseMeta(strings.Fields(line)),
// strings.ToUpper, responses by concatenation — kept verbatim as the
// reference the hand-rolled byte path is checked against and benchmarked
// beside.

// metaToken reports whether f has the shape of a trailing metadata
// token: 'D' or 'A' followed by an optionally signed run of digits.
func metaToken(f string) bool {
	if len(f) < 2 || (f[0] != 'D' && f[0] != 'A') {
		return false
	}
	rest := f[1:]
	if rest[0] == '-' || rest[0] == '+' {
		rest = rest[1:]
	}
	if rest == "" {
		return false
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return false
		}
	}
	return true
}

// parseMeta strips trailing metadata tokens — at most one D and one A,
// in either order — off a request's fields.
func parseMeta(fields []string) ([]string, reqMeta, string) {
	var meta reqMeta
	var haveD, haveA bool
	for len(fields) > 0 {
		f := fields[len(fields)-1]
		if !metaToken(f) {
			break
		}
		v, err := strconv.ParseInt(f[1:], 10, 64)
		if f[0] == 'D' {
			if haveD {
				return nil, reqMeta{}, "ERR duplicate token " + f
			}
			haveD = true
			if err != nil || v <= 0 {
				return nil, reqMeta{}, "ERR bad token " + f
			}
			meta.deadline = time.UnixMicro(v)
		} else {
			if haveA {
				return nil, reqMeta{}, "ERR duplicate token " + f
			}
			haveA = true
			if err != nil || v < 0 {
				return nil, reqMeta{}, "ERR bad token " + f
			}
			meta.attempt = v
		}
		fields = fields[:len(fields)-1]
	}
	return fields, meta, ""
}

// referenceRequest answers line the way handleRequest did before the
// byte path, on a single-shard server (MGET's fan-out is then one leg).
func (s *Server) referenceRequest(line string) string {
	fields, meta, metaErr := parseMeta(strings.Fields(line))
	if metaErr != "" {
		return metaErr
	}
	if len(fields) == 0 {
		return "ERR empty request"
	}
	var resp string
	sh := s.group.Shard(0)
	opts := shard.DoOptions{Deadline: meta.deadline, Attempt: meta.attempt}
	run := func(class preemptible.Class, task preemptible.Task) {
		if msg := settle(sh.Do(class, task, opts)); msg != "" {
			resp = msg
		}
	}
	switch strings.ToUpper(fields[0]) {
	case "PING":
		run(preemptible.ClassLC, func(*preemptible.Ctx) { resp = "PONG" })
	case "STATS2":
		return s.statsV2Line()
	case "GET":
		if len(fields) != 2 {
			return "ERR GET <key>"
		}
		run(preemptible.ClassLC, func(*preemptible.Ctx) {
			if res := sh.StoreGet([]byte(fields[1])); res.Hit {
				resp = "VALUE " + string(res.Value)
			} else {
				resp = "NOT_FOUND"
			}
		})
	case "SET":
		if len(fields) < 3 {
			return "ERR SET <key> <value>"
		}
		value := strings.Join(fields[2:], " ")
		run(preemptible.ClassLC, func(*preemptible.Ctx) {
			ok, err := sh.DurableSet([]byte(fields[1]), []byte(value))
			switch {
			case err != nil:
				resp = "ERR wal"
			case ok:
				resp = "OK"
			default:
				resp = "ERR value too large"
			}
		})
	case "MGET":
		if len(fields) < 2 {
			return "ERR MGET <key> [<key> ...]"
		}
		tokens := make([]string, len(fields)-1)
		res := sh.Do(preemptible.ClassLC, func(*preemptible.Ctx) {
			for i, k := range fields[1:] {
				if r := sh.StoreGet([]byte(k)); r.Hit {
					tokens[i] = "=" + url.QueryEscape(string(r.Value))
				} else {
					tokens[i] = "NOT_FOUND"
				}
			}
		}, opts)
		if res.Outcome != shard.OK {
			for i := range tokens {
				tokens[i] = failToken(res.Outcome)
			}
		}
		return "MVALUES " + strings.Join(tokens, " ")
	case "COMPRESS":
		if len(fields) != 2 {
			return "ERR COMPRESS <kilobytes>"
		}
		kb, err := strconv.Atoi(fields[1])
		if err != nil || kb <= 0 || kb > 1024 {
			return "ERR COMPRESS wants 1..1024 kilobytes"
		}
		run(preemptible.ClassBE, func(ctx *preemptible.Ctx) {
			block := bejob.MakeBlock(1024, uint64(kb))
			var in, out int
			for i := 0; i < kb; i++ {
				n, err := sh.Engine().CompressBlock(block)
				if err != nil {
					resp = "ERR " + err.Error()
					return
				}
				in += len(block)
				out += n
				ctx.Checkpoint()
			}
			resp = fmt.Sprintf("COMPRESSED %d %d", in, out)
		})
	default:
		return "ERR unknown command " + fields[0]
	}
	return resp
}

// FuzzParseMatchesReference is the differential check of the
// hand-rolled byte parser against the stdlib one it replaced: for any
// line, the same fields, deadline, attempt and error line — from the
// tokenizer and from ParseLine — and, on two servers fed the same lines,
// the same response byte for byte.
func FuzzParseMatchesReference(f *testing.F) {
	// FuzzParse's seeds.
	for _, seed := range []string{
		"PING", "ping", "GET k", "GET", "GET a b c", "SET k v", "SET k multi word value", "SET k",
		"COMPRESS 2", "COMPRESS 0", "COMPRESS -3", "COMPRESS 99999", "COMPRESS x", "COMPRESS", "NOPE",
		"  ", "\tGET\tk\t", "GET \x00\xff", strings.Repeat("SET k ", 100),
		"PING D1 A1", "GET k D123456789", "GET k A2 D123456789", "SET k v D123 A0", "COMPRESS 2 D123 A1",
		"D123", "PING D-5", "PING D0", "PING A-1", "PING D99999999999999999999", "PING A99999999999999999999",
		"PING D1 D2", "PING A1 A2 D3", "PING D+12 A+1", "SET k A1", "SET k v A", "SET k v Dx9",
		"MGET", "MGET k", "MGET a b c", "MGET k D123456789", "MGET a b A1 D123456789", "MGET D123",
		"MGET " + strings.Repeat("k ", 200), "STATS", "STATS2",
		"GET " + strings.Repeat("k", 1<<16), "SET big " + strings.Repeat("v", 1<<16), "MGET " + strings.Repeat("key ", 1<<12),
	} {
		f.Add(seed)
	}
	// And the places a byte parser can part ways with strings.Fields and
	// strings.ToUpper.
	for _, seed := range []string{
		" ",
		"SET k a  b\tc",
		"get k",
		"GET \xff\xfe",
		"SET k \xc3\x28 v \xe2\x28\xa1",
		"\u0085\u00a0\u2000\u3000",       // Unicode white space only: an empty request
		"SET\u00a0k\u2003v w",            // ... and as the separator
		"SET k v\u0085A1",                // ... and before a metadata token
		"\u017fet k long-s", "p\u0131ng", // U+017F upper-cases to S, U+0131 to I: verbs only ToUpper finds
		"compre\u017f\u017f 1",
	} {
		f.Add(seed)
	}

	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		f.Fatal(err)
	}
	defer rt.Close()
	ref, got := New(rt, Config{Workers: 1}), New(rt, Config{Workers: 1})
	defer ref.group.Close()
	defer got.group.Close()

	var scratch [][]byte
	f.Fuzz(func(t *testing.T, line string) {
		wantF, wantM, wantErr := parseMeta(strings.Fields(line))
		scratch = splitFields(scratch, []byte(line))
		gotF, gotM, gotErr := stripMeta(scratch)
		if gotErr != wantErr || gotM != wantM || len(gotF) != len(wantF) {
			t.Fatalf("%q: bytes → %q %+v %q, reference → %q %+v %q", line, gotF, gotM, gotErr, wantF, wantM, wantErr)
		}
		for i := range wantF {
			if string(gotF[i]) != wantF[i] {
				t.Fatalf("%q: field %d is %q, reference %q", line, i, gotF[i], wantF[i])
			}
		}
		if pf, perr := ParseLine(line); perr != wantErr || !slices.Equal(pf, wantF) {
			t.Fatalf("%q: ParseLine → %q %q, reference → %q %q", line, pf, perr, wantF, wantErr)
		}

		want, resp := ref.referenceRequest(line), got.HandleLine(line)
		if strings.HasPrefix(want, "STATS2 {") && strings.HasPrefix(resp, "STATS2 {") {
			return // the document carries latencies; only its shape can match
		}
		if resp != want {
			t.Fatalf("%q: response %q, reference %q", line, resp, want)
		}
	})
}

const benchLine = "SET key-123 value-payload D1754600000000000 A1"

// BenchmarkParseReference and BenchmarkParseBytes are the stdlib parser
// and the hand-rolled one side by side:
//
//	go test -run '^$' -bench 'BenchmarkParse(Reference|Bytes)$' -benchmem ./internal/liveserver/
func BenchmarkParseReference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, errLine := parseMeta(strings.Fields(benchLine)); errLine != "" {
			b.Fatal(errLine)
		}
	}
}

func BenchmarkParseBytes(b *testing.B) {
	line := []byte(benchLine)
	var fields [][]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fields = splitFields(fields, line)
		if _, _, errLine := stripMeta(fields); errLine != "" {
			b.Fatal(errLine)
		}
	}
}
