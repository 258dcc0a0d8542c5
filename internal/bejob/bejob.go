// Package bejob models the best-effort colocated workload of §V-C:
// zlib compression of 25 kB raw-data blocks with a ~100 µs median
// request latency (Table V).
//
// Two layers are provided:
//
//   - a simulated request generator (service-time model, ClassBE
//     requests) used by the colocation experiments; and
//   - a real compression engine built on the standard library's
//     compress/flate (zlib's DEFLATE, without zlib's two-byte header and
//     checksum), used by the live server's COMPRESS verb and the
//     examples so the BE job performs genuine work.
package bejob

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"

	"repro/internal/sched"
	"repro/internal/sim"
)

// DefaultBlockBytes is the paper's BE work unit: 25 kB of raw data.
const DefaultBlockBytes = 25 * 1024

// Config parameterizes the simulated BE generator.
type Config struct {
	// MedianService is the per-block compression time (Table V:
	// ~100 µs median on the testbed).
	MedianService sim.Time
	// Sigma is the lognormal dispersion (compression time varies with
	// block entropy).
	Sigma float64
}

// DefaultConfig matches Table V.
func DefaultConfig() Config {
	return Config{MedianService: 100 * sim.Microsecond, Sigma: 0.25}
}

// Generator produces ClassBE requests with modeled service times.
type Generator struct {
	cfg  Config
	dist sim.LognormalDist
	rng  *sim.RNG
	next uint64
}

// NewGenerator builds a BE request generator.
func NewGenerator(cfg Config, rng *sim.RNG) *Generator {
	if cfg.MedianService <= 0 {
		panic("bejob: non-positive median service")
	}
	return &Generator{
		cfg:  cfg,
		dist: sim.LognormalDist{Median: cfg.MedianService, Sigma: cfg.Sigma},
		rng:  rng,
	}
}

// NextRequest returns one BE compression request arriving at arrival.
func (g *Generator) NextRequest(arrival sim.Time) *sched.Request {
	g.next++
	return sched.NewRequest(g.next, sched.ClassBE, arrival, g.dist.Sample(g.rng))
}

// Engine is the real compression engine: it compresses blocks with
// DEFLATE and reports the compressed size. It is safe for concurrent use
// — pool workers share one engine — and allocates nothing in steady
// state. A DEFLATE writer is about 800 KB of tables, so a new one per
// block made the engine the process's largest source of garbage and put
// the collector beside every latency-critical request; the engine
// instead keeps idle writers and resets one for each block, which
// yields exactly the bytes a new writer would.
type Engine struct {
	level int
	idle  sync.Pool // of *sizer
}

// sizer is a DEFLATE writer bound to the sink it writes into. Only the
// compressed size is reported, so the sink counts bytes and keeps none.
type sizer struct {
	w *flate.Writer
	n byteCount
}

// byteCount is an io.Writer that counts what it is given.
type byteCount int

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

// NewEngine returns an engine at the given flate compression level
// (flate.DefaultCompression if 0). An invalid level is reported by
// CompressBlock.
func NewEngine(level int) *Engine {
	if level == 0 {
		level = flate.DefaultCompression
	}
	return &Engine{level: level}
}

// CompressBlock compresses one block and returns the compressed size.
func (e *Engine) CompressBlock(block []byte) (int, error) {
	s, _ := e.idle.Get().(*sizer)
	if s == nil {
		s = new(sizer)
		w, err := flate.NewWriter(&s.n, e.level)
		if err != nil {
			return 0, err
		}
		s.w = w
	}
	defer e.idle.Put(s)
	s.n = 0
	s.w.Reset(&s.n)
	if _, err := s.w.Write(block); err != nil {
		return 0, err
	}
	if err := s.w.Close(); err != nil {
		return 0, err
	}
	return int(s.n), nil
}

// Decompress inflates data (round-trip validation in tests/examples).
func Decompress(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	return io.ReadAll(r)
}

// MakeBlock builds a deterministic pseudo-random block of n bytes with
// moderate compressibility (mixing a repeating pattern with noise),
// resembling the "raw data" of the paper's setup.
func MakeBlock(n int, seed uint64) []byte {
	rng := sim.NewRNG(seed)
	out := make([]byte, n)
	pattern := []byte("the quick brown fox jumps over the lazy dog ")
	for i := range out {
		if rng.Float64() < 0.7 {
			out[i] = pattern[i%len(pattern)]
		} else {
			out[i] = byte(rng.Uint64())
		}
	}
	return out
}
