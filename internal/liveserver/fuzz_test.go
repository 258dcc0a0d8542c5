package liveserver

import (
	"bytes"
	"net/url"
	"strings"
	"testing"

	"repro/preemptible"
)

// FuzzParse throws arbitrary request lines at the protocol parser.
// Invariants: handleRequest never panics, always returns a non-empty
// single-line response, and answers malformed input with "ERR ...".
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"PING",
		"ping",
		"GET k",
		"GET",
		"GET a b c",
		"SET k v",
		"SET k multi word value",
		"SET k",
		"COMPRESS 2",
		"COMPRESS 0",
		"COMPRESS -3",
		"COMPRESS 99999",
		"COMPRESS x",
		"COMPRESS",
		"NOPE",
		"  ",
		"\tGET\tk\t",
		"GET \x00\xff",
		strings.Repeat("SET k ", 100),
		// Metadata tokens: deadline (D, absolute micros) and attempt (A).
		"PING D1 A1",
		"GET k D123456789",
		"GET k A2 D123456789",
		"SET k v D123 A0",
		"COMPRESS 2 D123 A1",
		"D123",                       // token with no command
		"PING D-5",                   // negative deadline: bad token
		"PING D0",                    // zero deadline: bad token
		"PING A-1",                   // negative attempt: bad token
		"PING D99999999999999999999", // overflow: bad token
		"PING A99999999999999999999",
		"PING D1 D2",    // duplicate deadline
		"PING A1 A2 D3", // duplicate attempt
		"PING D+12 A+1", // explicit sign
		"SET k A1",      // token shape eats the value: SET arity error
		"SET k v A",     // bare prefix: data, not a token
		"SET k v Dx9",
		// MGET arity edges: zero keys is a protocol error, one key the
		// minimum, many keys a fan-out; metadata tokens must never be
		// mistaken for keys.
		"MGET",
		"MGET k",
		"MGET a b c",
		"MGET k D123456789",
		"MGET a b A1 D123456789",
		"MGET D123", // the only "key" has token shape: arity error
		"MGET " + strings.Repeat("k ", 200),
		"STATS",
		"STATS2",
		// Oversized lines: the parser must stay linear and single-line on
		// input near the transport's MaxLineBytes bound.
		"GET " + strings.Repeat("k", 1<<16),
		"SET big " + strings.Repeat("v", 1<<16),
		"MGET " + strings.Repeat("key ", 1<<12),
	} {
		f.Add(seed)
	}

	rt, err := preemptible.New(preemptible.Config{})
	if err != nil {
		f.Fatal(err)
	}
	defer rt.Close()
	s := New(rt, Config{Workers: 1})
	defer s.group.Close()

	f.Fuzz(func(t *testing.T, line string) {
		resp := s.handleRequest(line, nil)
		if resp == "" {
			t.Fatalf("empty response to %q", line)
		}
		if strings.ContainsAny(resp, "\n\r") {
			t.Fatalf("multi-line response to %q: %q", line, resp)
		}
		fields := strings.Fields(line)
		if len(fields) == 0 && resp != "ERR empty request" {
			t.Fatalf("blank line → %q", resp)
		}
		if len(fields) > 0 {
			switch strings.ToUpper(fields[0]) {
			case "PING", "GET", "SET", "COMPRESS", "MGET", "STATS2":
			default:
				if !strings.HasPrefix(resp, "ERR") {
					t.Fatalf("unknown command %q → %q, want ERR", line, resp)
				}
			}
		}
	})
}

// FuzzAppendQueryEscape holds MGET's escaper to the encoding it
// replaced: appendQueryEscape(prefix, b) is prefix followed by
// url.QueryEscape(b), byte for byte, whatever the bytes.
func FuzzAppendQueryEscape(f *testing.F) {
	for c := 0; c < 256; c++ {
		f.Add([]byte("="), []byte{byte(c)})
	}
	f.Add([]byte(nil), []byte(nil))
	f.Add([]byte("="), []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"))
	f.Fuzz(func(t *testing.T, prefix, b []byte) {
		got := appendQueryEscape(bytes.Clone(prefix), b)
		if want := string(prefix) + url.QueryEscape(string(b)); string(got) != want {
			t.Fatalf("appendQueryEscape(%q, %q) = %q, want %q", prefix, b, got, want)
		}
	})
}
