// Package mica implements a MICA-style in-memory key-value store
// (NSDI'14) — the latency-critical application of the paper's
// colocation study (§V-C) — plus the request generator that reproduces
// the paper's workload: 5/95 SET/GET with Zipfian(0.99) key popularity
// and ~1 µs median request processing time.
//
// The store is functionally real: a lossy associative bucket index over
// a circular append log, both fixed-capacity, with MICA's eviction
// semantics (new inserts may displace colliding index entries; the log
// overwrites its oldest entries). Request *timing* is modeled: the
// generator derives each operation's simulated service time from what
// the operation actually did (hit/miss/set, key rank), reproducing the
// dispersion that key skew induces.
package mica

import (
	"encoding/binary"
	"fmt"
)

// bucketEntries is the associativity of each index bucket.
const bucketEntries = 8

// entry is one index slot: a tag for cheap comparison and the log
// offset of the item.
type entry struct {
	tag    uint16
	offset uint32
	used   bool
}

// header layout in the log: [keyLen uint16][valLen uint16][key][value]
const headerBytes = 4

// Store is a single-partition MICA store (the paper runs one partition
// per core; experiments size partitions accordingly).
type Store struct {
	buckets [][bucketEntries]entry
	mask    uint32

	log     []byte
	logHead uint32 // next append offset (wraps)
	logLen  uint32 // bytes written (saturates at len(log))

	// Stats.
	Sets, Gets, Hits, Misses uint64
	IndexEvictions           uint64
}

// NewStore builds a store with the given circular-log capacity in bytes
// and number of index buckets (rounded up to a power of two).
func NewStore(logBytes int, buckets int) *Store {
	if logBytes < 64 || buckets < 1 {
		panic("mica: store too small")
	}
	nb := 1
	for nb < buckets {
		nb <<= 1
	}
	return &Store{
		buckets: make([][bucketEntries]entry, nb),
		mask:    uint32(nb - 1),
		log:     make([]byte, logBytes),
	}
}

// hash64 is FNV-1a over the key.
func hash64(key []byte) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

// Fits reports whether Set would accept key → value: the item fits in
// the log and each length in its 16-bit header field.
func (s *Store) Fits(key, value []byte) bool {
	return headerBytes+len(key)+len(value) <= len(s.log) && len(key) <= 0xffff && len(value) <= 0xffff
}

// Set inserts or updates key → value. It returns false when the item
// cannot fit in the log at all.
func (s *Store) Set(key, value []byte) bool {
	if !s.Fits(key, value) {
		return false
	}
	s.Sets++
	off := s.append(key, value)
	h := hash64(key)
	b := &s.buckets[uint32(h)&s.mask]
	tag := uint16(h >> 48)

	// Update in place if present.
	for i := range b {
		if b[i].used && b[i].tag == tag && s.keyAt(b[i].offset, key) {
			b[i].offset = off
			return true
		}
	}
	// Else take a free slot, or evict the first slot (lossy index).
	for i := range b {
		if !b[i].used {
			b[i] = entry{tag: tag, offset: off, used: true}
			return true
		}
	}
	s.IndexEvictions++
	copy(b[:], b[1:])
	b[bucketEntries-1] = entry{tag: tag, offset: off, used: true}
	return true
}

// Get looks up key, returning the value and whether it was found. A
// stale index entry whose log slot has been overwritten is a miss
// (MICA's lossy semantics).
type GetResult struct {
	Value []byte
	Hit   bool
	// Displacement is the bucket slot index the key was found at — a
	// proxy for probe work used by the timing model.
	Displacement int
}

// Get looks up key.
func (s *Store) Get(key []byte) GetResult {
	v, slot, ok := s.find(key)
	if !ok {
		return GetResult{}
	}
	out := make([]byte, len(v))
	copy(out, v)
	return GetResult{Value: out, Hit: true, Displacement: slot}
}

// AppendGet is Get for a caller that has a buffer: on a hit the value is
// appended to dst, with no allocation when dst has the room. The same
// counters move as for Get.
func (s *Store) AppendGet(dst, key []byte) ([]byte, bool) {
	v, _, ok := s.find(key)
	return append(dst, v...), ok
}

// find counts one lookup and returns key's value as it lies in the log
// — valid only until the next Set — with the bucket slot it was found
// at.
func (s *Store) find(key []byte) (value []byte, slot int, ok bool) {
	s.Gets++
	h := hash64(key)
	b := &s.buckets[uint32(h)&s.mask]
	tag := uint16(h >> 48)
	for i := range b {
		if b[i].used && b[i].tag == tag {
			if v, ok := s.valueAt(b[i].offset, key); ok {
				s.Hits++
				return v, i, true
			}
		}
	}
	s.Misses++
	return nil, 0, false
}

// append writes the item at the log head, wrapping circularly. Items
// never straddle the wrap point: if the tail is too small we skip it.
func (s *Store) append(key, value []byte) uint32 {
	need := uint32(headerBytes + len(key) + len(value))
	if s.logHead+need > uint32(len(s.log)) {
		s.logHead = 0 // wrap; the skipped tail is dead space
	}
	off := s.logHead
	binary.LittleEndian.PutUint16(s.log[off:], uint16(len(key)))
	binary.LittleEndian.PutUint16(s.log[off+2:], uint16(len(value)))
	copy(s.log[off+headerBytes:], key)
	copy(s.log[off+headerBytes+uint32(len(key)):], value)
	s.logHead += need
	if s.logLen < uint32(len(s.log)) {
		s.logLen += need
	}
	return off
}

// keyAt reports whether the log record at off holds key.
func (s *Store) keyAt(off uint32, key []byte) bool {
	if int(off)+headerBytes > len(s.log) {
		return false
	}
	kl := int(binary.LittleEndian.Uint16(s.log[off:]))
	if kl != len(key) || int(off)+headerBytes+kl > len(s.log) {
		return false
	}
	rec := s.log[off+headerBytes : int(off)+headerBytes+kl]
	for i := range key {
		if rec[i] != key[i] {
			return false
		}
	}
	return true
}

// valueAt returns the value of the record at off, in place in the log,
// if it still holds key.
func (s *Store) valueAt(off uint32, key []byte) ([]byte, bool) {
	if !s.keyAt(off, key) {
		return nil, false
	}
	kl := int(binary.LittleEndian.Uint16(s.log[off:]))
	vl := int(binary.LittleEndian.Uint16(s.log[off+2:]))
	start := int(off) + headerBytes + kl
	if start+vl > len(s.log) {
		return nil, false
	}
	return s.log[start : start+vl], true
}

// Range calls fn for every live key/value pair — exactly the pairs a
// Get would currently hit — until fn returns false. The snapshot path
// (internal/wal via internal/shard) is the consumer: the emitted set
// must be the store's observable contents, so each index entry is
// validated before emission. The log is circular and the index lossy,
// so a slot may point at bytes since overwritten by another record;
// an entry owns its record only if the key found there still hashes to
// this bucket with this entry's tag. When two slots in a bucket claim
// the same key (one stale), only the first — the one Get would return
// — is emitted. Key and value are copied; fn may retain them.
func (s *Store) Range(fn func(key, value []byte) bool) {
	for bi := range s.buckets {
		b := &s.buckets[bi]
		for i := range b {
			if !b[i].used {
				continue
			}
			off := int(b[i].offset)
			if off+headerBytes > len(s.log) {
				continue
			}
			kl := int(binary.LittleEndian.Uint16(s.log[off:]))
			vl := int(binary.LittleEndian.Uint16(s.log[off+2:]))
			end := off + headerBytes + kl + vl
			if end > len(s.log) {
				continue
			}
			key := s.log[off+headerBytes : off+headerBytes+kl]
			h := hash64(key)
			if uint32(h)&s.mask != uint32(bi) || uint16(h>>48) != b[i].tag {
				continue // slot overwritten by a record from another bucket
			}
			first := true
			for j := 0; j < i; j++ {
				if b[j].used && b[j].tag == b[i].tag && s.keyAt(b[j].offset, key) {
					first = false
					break
				}
			}
			if !first {
				continue
			}
			k := make([]byte, kl)
			copy(k, key)
			v := make([]byte, vl)
			copy(v, s.log[off+headerBytes+kl:end])
			if !fn(k, v) {
				return
			}
		}
	}
}

// HitRate reports the GET hit fraction so far.
func (s *Store) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// KeyForRank returns the canonical 16-byte key for a Zipf rank.
func KeyForRank(rank int) []byte {
	return []byte(fmt.Sprintf("key-%012d", rank))
}
