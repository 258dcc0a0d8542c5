package main

import (
	"strings"
	"testing"
)

// render is every request line of every connection's stream, in order.
func render(w workload, seed uint64, conns, n int) string {
	tab := newTables(w, seed)
	var b strings.Builder
	for c := 0; c < conns; c++ {
		s := genStream(tab, seed, c, conns, n)
		for _, o := range s.ops {
			b.WriteString(s.line(tab, o))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b, c := render(w, 7, 2, 3000), render(w, 7, 2, 3000), render(w, 8, 2, 3000)
		if a != b {
			t.Errorf("%s: the same seed gave different streams", w.name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave the same stream", w.name)
		}
	}
}

// TestStreamShape checks what the validator relies on: each key has one
// writer, and that writer's SET versions count up from 1.
func TestStreamShape(t *testing.T) {
	w, _ := workloadByName("kv_durable")
	tab := newTables(w, 3)
	const conns = 2
	for c := 0; c < conns; c++ {
		s := genStream(tab, 3, c, conns, 20000)
		vers := make(map[int32]uint32)
		sets := 0
		for _, o := range s.ops {
			if o.kind != opSet {
				continue
			}
			sets++
			if int(o.rank)%conns != c {
				t.Fatalf("conn %d writes key rank %d, which conn %d owns", c, o.rank, int(o.rank)%conns)
			}
			vers[o.rank]++
			if want := tab.setLine(int(o.rank), vers[o.rank]); s.setLines[o.line] != want {
				t.Fatalf("conn %d: SET line %q, want %q", c, s.setLines[o.line], want)
			}
		}
		if sets < 9000 || sets > 11000 {
			t.Errorf("conn %d: %d SETs in 20000 ops, want about half", c, sets)
		}
	}
}
