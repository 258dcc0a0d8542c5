package bejob

import (
	"bytes"
	"compress/flate"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testutil"
)

func TestGeneratorMedianService(t *testing.T) {
	g := NewGenerator(DefaultConfig(), sim.NewRNG(1))
	h := stats.NewHistogram()
	for i := 0; i < 20000; i++ {
		r := g.NextRequest(0)
		if r.Class != sched.ClassBE {
			t.Fatal("wrong class")
		}
		h.Record(int64(r.Service))
	}
	med := sim.Time(h.Median())
	if med < 90*sim.Microsecond || med > 110*sim.Microsecond {
		t.Fatalf("median = %v, want ~100µs per Table V", med)
	}
}

func TestGeneratorIDsUnique(t *testing.T) {
	g := NewGenerator(DefaultConfig(), sim.NewRNG(2))
	a, b := g.NextRequest(0), g.NextRequest(0)
	if a.ID == b.ID {
		t.Fatal("duplicate IDs")
	}
}

func TestGeneratorPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGenerator(Config{}, sim.NewRNG(3))
}

func TestEngineRoundTrip(t *testing.T) {
	e := NewEngine(0)
	block := MakeBlock(DefaultBlockBytes, 7)
	n, err := e.CompressBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || n >= len(block) {
		t.Fatalf("compressed %d bytes from %d: block should compress", n, len(block))
	}
	if want := freshSize(t, block, flate.DefaultCompression); n != want {
		t.Fatalf("compressed to %d bytes, a new writer to %d", n, want)
	}
}

// freshSize is the reference: the size a newly made DEFLATE writer
// compresses block to.
func freshSize(t *testing.T, block []byte, level int) int {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(block); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestCompressBlockMatchesFreshWriter: a reused writer compresses every
// block the live COMPRESS verb can issue (MakeBlock(1024, kb), kb 1 to
// 1024) to the size a new writer does, so COMPRESS replies are the same
// bytes they were when the engine made a writer per block.
func TestCompressBlockMatchesFreshWriter(t *testing.T) {
	e := NewEngine(0)
	for kb := 1; kb <= 1024; kb++ {
		block := MakeBlock(1024, uint64(kb))
		n, err := e.CompressBlock(block)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshSize(t, block, flate.DefaultCompression); n != want {
			t.Fatalf("kb=%d: engine %d bytes, new writer %d", kb, n, want)
		}
	}
}

// TestCompressBlockRejectsBadLevel: an invalid level is an error from
// CompressBlock, as it was from flate.NewWriter, and never a pooled
// writer.
func TestCompressBlockRejectsBadLevel(t *testing.T) {
	e := NewEngine(42)
	for i := 0; i < 2; i++ {
		if _, err := e.CompressBlock(MakeBlock(64, 1)); err == nil {
			t.Fatal("level 42 accepted")
		}
	}
}

// TestAllocBudgetCompressBlock: in steady state a block costs no
// allocation — the writer, its 800 KB of tables and its sink are reused.
func TestAllocBudgetCompressBlock(t *testing.T) {
	e := NewEngine(0)
	block := MakeBlock(1024, 64)
	testutil.AllocBudget(t, "CompressBlock(1 KiB)", 0, func() {
		if _, err := e.CompressBlock(block); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEngineSharedAcrossGoroutines: four goroutines compressing through
// one engine at once each get their own block's size (run it under
// -race: two calls must never share a writer).
func TestEngineSharedAcrossGoroutines(t *testing.T) {
	const goroutines, rounds = 4, 50
	e := NewEngine(0)
	blocks := make([][]byte, goroutines)
	want := make([]int, goroutines)
	for g := range blocks {
		blocks[g] = MakeBlock(1024*(g+1), uint64(100+g))
		want[g] = freshSize(t, blocks[g], flate.DefaultCompression)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n, err := e.CompressBlock(blocks[g])
				if err != nil || n != want[g] {
					t.Errorf("goroutine %d round %d: %d bytes (err %v), want %d", g, i, n, err, want[g])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDecompressRestoresData(t *testing.T) {
	block := MakeBlock(4096, 9)
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(block); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block) {
		t.Fatal("round trip corrupted data")
	}
}

func TestMakeBlockDeterministic(t *testing.T) {
	a, b := MakeBlock(1024, 5), MakeBlock(1024, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("MakeBlock not deterministic")
	}
	c := MakeBlock(1024, 6)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave identical blocks")
	}
}
