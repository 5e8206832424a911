// Canonicalized-pattern result cache: binary keys, N-way sharding.
//
// Every quantity the allocator computes — distance-graph edges, path
// covers, merge costs, the final Assignment (which holds access
// *indices*, not addresses) — depends only on pairwise offset
// differences Offsets[j]-Offsets[i] and on the stride, never on
// absolute offsets. Translating every offset of a pattern by the same
// constant therefore yields a byte-identical Result up to the echoed
// Pattern itself. The cache exploits this: keys normalize the pattern
// so its first offset is zero (and drop the informational array name),
// letting A[i], A[i+1] share an entry with B[i+7], B[i+8].
//
// Keys are fixed-size binary values, not strings: the normalized
// offset sequence is folded into a 128-bit digest (two independent
// 64-bit mix chains) and the allocation parameters are packed beside
// it, so key construction allocates nothing even on the cache-hit
// fast path. FuzzCanonicalKey guards the translation-iff property
// against digest mistakes.
//
// The cache is sharded 2^k ways by digest, one mutex and one LRU list
// per shard, so concurrent hits on a warm cache do not serialize on a
// single global lock.

package engine

import (
	"runtime"
	"sync"

	"dspaddr/internal/core"
	"dspaddr/internal/merge"
)

// DefaultCacheSize is the total entry cap (across all shards) used
// when Options.CacheSize is 0.
const DefaultCacheSize = 4096

// cacheKey is the fixed-size binary canonical key: a 128-bit digest of
// the translation-normalized access sequence (plus stride and job
// kind) alongside the packed allocation parameters. Keys are
// comparable and hash directly as map keys; building one performs no
// allocation.
type cacheKey struct {
	h1, h2      uint64
	registers   int32
	modifyRange int32
	flags       uint8
	strategy    uint8 // merge.ByName's code
}

const (
	// keyFlagWrap marks the inter-iteration objective.
	keyFlagWrap uint8 = 1 << 0
	// keyFlagLoop separates whole-loop keys from pattern keys.
	keyFlagLoop uint8 = 1 << 1
)

// digest is a 128-bit running hash: two 64-bit splitmix chains seeded
// differently and fed transformed copies of each value, so a pair
// collision requires both independent chains to collide at once.
type digest struct{ h1, h2 uint64 }

func newDigest() digest {
	return digest{h1: 0x9e3779b97f4a7c15, h2: 0xc2b2ae3d27d4eb4f}
}

// mix64 is the splitmix64 finalizer, a full-avalanche 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (d *digest) mixInt(v int) {
	x := uint64(int64(v))
	d.h1 = mix64(d.h1 ^ x)
	d.h2 = mix64(d.h2 ^ x*0xff51afd7ed558ccd)
}

// canonicalKey builds the cache key of a pattern job: the
// translation-normalized offset sequence digested with the stride,
// plus every allocation parameter that influences the result.
func canonicalKey(req Request) cacheKey {
	d := newDigest()
	offs := req.Pattern.Offsets
	base := 0
	if len(offs) > 0 {
		base = offs[0]
	}
	for _, o := range offs {
		d.mixInt(o - base)
	}
	d.mixInt(len(offs))
	d.mixInt(req.Pattern.Stride)
	_, code, _ := merge.ByName(req.Strategy)
	var flags uint8
	if req.InterIteration {
		flags |= keyFlagWrap
	}
	return cacheKey{
		h1:          d.h1,
		h2:          d.h2,
		registers:   int32(req.AGU.Registers),
		modifyRange: int32(req.AGU.ModifyRange),
		flags:       flags,
		strategy:    code,
	}
}

// rewrite adapts a cached canonical result to the requesting job:
// same allocation, but echoing the caller's pattern and configuration.
// The assignment is cloned so callers can't corrupt the cached entry.
func rewrite(cached *core.Result, req Request) *core.Result {
	out := *cached
	out.Pattern = req.Pattern
	out.Config = req.config()
	out.Assignment = cached.Assignment.Clone()
	return &out
}

// cacheEntry is one intrusive LRU node.
type cacheEntry struct {
	key        cacheKey
	res        any
	prev, next *cacheEntry
}

// cacheShard is one lock domain: the LRU entries of the keys that
// hash here.
type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used
	size    int
	max     int
}

// resultCache is the sharded LRU of solved canonical results. Shard
// selection uses the key digest's low bits; with caching disabled
// (CacheSize < 0) get always misses and put retains nothing.
type resultCache struct {
	shards   []cacheShard
	mask     uint64
	capacity int
	disabled bool
}

// newResultCache sizes the cache: 0 means DefaultCacheSize, negative
// disables result retention. The shard count is the power of two
// nearest above twice the CPU count, clamped to [8, 64] — and halved
// down to the entry cap when the configured size is smaller than
// that, so a tiny cache degrades to fewer shards instead of rounding
// its capacity up. The per-shard caps sum to exactly the configured
// size: the total entry bound is never exceeded and CacheEntries can
// never pass CacheCapacity.
func newResultCache(size int) *resultCache {
	disabled := size < 0
	if size <= 0 {
		size = DefaultCacheSize
	}
	n := shardCount()
	for n > 1 && n > size {
		n >>= 1
	}
	c := &resultCache{
		shards:   make([]cacheShard, n),
		mask:     uint64(n - 1),
		capacity: size,
		disabled: disabled,
	}
	if disabled {
		c.capacity = 0
	}
	perShard, extra := size/n, size%n
	for i := range c.shards {
		s := &c.shards[i]
		s.max = perShard
		if i < extra {
			s.max++
		}
		if !disabled {
			s.entries = make(map[cacheKey]*cacheEntry)
		}
	}
	return c
}

func shardCount() int {
	n := 1
	for n < 2*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	if n < 8 {
		n = 8
	}
	if n > 64 {
		n = 64
	}
	return n
}

func (c *resultCache) shard(k cacheKey) *cacheShard { return &c.shards[k.h1&c.mask] }

// shardIndex exposes the shard a key maps to, for trace annotation.
func (c *resultCache) shardIndex(k cacheKey) int { return int(k.h1 & c.mask) }

// get returns the cached result for key, marking it most recently
// used.
func (c *resultCache) get(k cacheKey) (any, bool) {
	if c.disabled {
		return nil, false
	}
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.moveToFront(e)
	v := e.res
	s.mu.Unlock()
	return v, true
}

// put inserts a solved result, refreshing the entry when a
// concurrent identical miss got there first.
func (c *resultCache) put(k cacheKey, v any) {
	if c.disabled {
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	s.insert(k, v)
	s.mu.Unlock()
}

// insert adds or refreshes an entry, evicting the shard's least
// recently used entry past the cap. Callers hold the shard lock.
func (s *cacheShard) insert(k cacheKey, v any) {
	if e, ok := s.entries[k]; ok {
		e.res = v
		s.moveToFront(e)
		return
	}
	e := &cacheEntry{key: k, res: v}
	s.entries[k] = e
	s.pushFront(e)
	s.size++
	if s.size > s.max {
		oldest := s.tail
		s.unlink(oldest)
		delete(s.entries, oldest.key)
		s.size--
	}
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// len returns the current entry count across all shards.
func (c *resultCache) len() int {
	if c.disabled {
		return 0
	}
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.size
		s.mu.Unlock()
	}
	return total
}

// cap returns the configured total entry capacity (0 when disabled).
func (c *resultCache) cap() int { return c.capacity }

// shardsN returns the shard count.
func (c *resultCache) shardsN() int { return len(c.shards) }
