// Package artifact is a content-addressed, bounded, concurrency-safe cache
// of compiled execution artifacts. Entries are keyed by a canonical hash of
// everything that determines what a compilation produces — the program
// source and the compile-relevant options (pass list, loop schemes,
// balancing strategy) — so two submissions of the same program under the
// same strategy share one compiled artifact, and any difference that could
// change the compiled graph changes the key.
//
// The cache is built for a service admission path with three properties:
//
//   - Hits are cheap and parallel: the key space is sharded, each shard
//     guarded by its own mutex held only for map/LRU pointer work — never
//     across a compilation.
//   - Misses are deduplicated ("singleflight"): N concurrent submissions of
//     one new program trigger exactly one compile; the other N-1 block on
//     the winner's done channel and share its artifact (or its error —
//     errors propagate to every waiter and are never cached).
//   - Memory is bounded: per-shard LRU eviction under both an entry budget
//     and a byte budget (estimated artifact footprint).
package artifact

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"staticpipe/internal/core"
)

// Key identifies one compilation's content: the program source plus every
// Option field that can change the compiled artifact. Run-time attachments
// (context, tracer, progress, workers, cycle bound, lane width) bind per
// run in core.Binding, so no key holds them; Options.Batch, the one such
// field core.Options still carries, is excluded. Place and PEs shape
// nothing: every caller passes "" and 0, and they remain only because the
// benchmark harness (perfbench/workloads.go) calls KeyFor with four
// arguments.
type Key struct {
	Source         string
	ForallScheme   int
	ForIterScheme  int
	LiteralControl bool
	NoBalance      bool
	NaiveBalance   bool
	Dedup          bool
	ArmSlack       int
	Passes         string
	Place          string
	PEs            int
}

// KeyFor builds the cache key for one submission: src plus the
// compile-relevant fields of opts. place and pes are copied into the key
// unread (see Key).
func KeyFor(src string, opts core.Options, place string, pes int) Key {
	return Key{
		Source:         src,
		ForallScheme:   int(opts.ForallScheme),
		ForIterScheme:  int(opts.ForIterScheme),
		LiteralControl: opts.LiteralControl,
		NoBalance:      opts.NoBalance,
		NaiveBalance:   opts.NaiveBalance,
		Dedup:          opts.Dedup,
		ArmSlack:       opts.ArmSlack,
		Passes:         opts.Passes,
		Place:          place,
		PEs:            pes,
	}
}

// Hash returns the canonical content address: a SHA-256 over a
// length-prefixed encoding of every field (length prefixes make the
// encoding injective — no field concatenation can collide with another
// field split), rendered as lowercase hex.
func (k Key) Hash() string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	writeInt := func(v int) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(int64(v)))
		h.Write(n[:])
	}
	writeBool := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	writeStr(k.Source)
	writeInt(k.ForallScheme)
	writeInt(k.ForIterScheme)
	writeBool(k.LiteralControl)
	writeBool(k.NoBalance)
	writeBool(k.NaiveBalance)
	writeBool(k.Dedup)
	writeInt(k.ArmSlack)
	writeStr(k.Passes)
	writeStr(k.Place)
	writeInt(k.PEs)
	return hex.EncodeToString(h.Sum(nil))
}

// Config bounds the cache.
type Config struct {
	// MaxEntries caps the artifact count (default 256).
	MaxEntries int
	// MaxBytes caps the estimated resident footprint (default 256 MiB).
	MaxBytes int64
	// Shards is the lock-shard count (default 16, min 1).
	Shards int
}

func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 256
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 256 << 20
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Shards > c.MaxEntries {
		c.Shards = c.MaxEntries
	}
	return c
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64 // lookups served from a resident entry
	Misses    int64 // lookups that compiled (one per singleflight group)
	Coalesced int64 // lookups that waited on another caller's compile
	Evictions int64 // entries removed under the budgets
	Entries   int64 // resident artifacts
	Bytes     int64 // estimated resident footprint
	// CompileSaved is the cumulative compile wall time hits and coalesced
	// waiters did not pay (each credited the entry's measured cost).
	CompileSaved time.Duration
}

// entry is one resident artifact plus its LRU bookkeeping.
type entry struct {
	hash string
	art  *core.Artifact
	size int64
	elem *list.Element // position in the shard's LRU list
}

// flight is one in-progress compile; waiters block on done.
type flight struct {
	done chan struct{}
	art  *core.Artifact
	err  error
}

// shard is one lock domain: a hash→entry map with LRU ordering, plus the
// in-flight compile table for singleflight coalescing.
type shard struct {
	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recent; evict from back
	inflight map[string]*flight
	bytes    int64
}

// Cache is the content-addressed artifact cache. The zero value is not
// usable; construct with New.
type Cache struct {
	cfg        Config
	shards     []shard
	perEntries int   // per-shard entry budget
	perBytes   int64 // per-shard byte budget

	hits         atomic.Int64
	misses       atomic.Int64
	coalesced    atomic.Int64
	evictions    atomic.Int64
	entries      atomic.Int64
	bytes        atomic.Int64
	compileSaved atomic.Int64 // nanoseconds
}

// New builds a cache under the given budgets.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{
		cfg:        cfg,
		shards:     make([]shard, cfg.Shards),
		perEntries: max(1, cfg.MaxEntries/cfg.Shards),
		perBytes:   max64(1, cfg.MaxBytes/int64(cfg.Shards)),
	}
	for i := range c.shards {
		c.shards[i].entries = map[string]*entry{}
		c.shards[i].lru = list.New()
		c.shards[i].inflight = map[string]*flight{}
	}
	return c
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (c *Cache) shardFor(hash string) *shard {
	// The hash is uniformly distributed hex; its first byte picks a shard.
	return &c.shards[int(hash[0])%len(c.shards)]
}

// Outcome reports how a Get was served.
type Outcome int

const (
	// Hit means the artifact was resident.
	Hit Outcome = iota
	// Miss means this caller compiled it.
	Miss
	// Coalesced means another caller was already compiling it and this
	// caller shared the result.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// Get returns the artifact for key, compiling it via compile on a miss.
// Concurrent Gets for one key run compile exactly once; every caller gets
// the same artifact (or the same error — errors are delivered to all
// waiters and never cached). compile runs outside all cache locks.
func (c *Cache) Get(key Key, compile func() (*core.Artifact, error)) (*core.Artifact, Outcome, error) {
	hash := key.Hash()
	sh := c.shardFor(hash)

	sh.mu.Lock()
	if e, ok := sh.entries[hash]; ok {
		sh.lru.MoveToFront(e.elem)
		art := e.art
		sh.mu.Unlock()
		c.hits.Add(1)
		c.compileSaved.Add(int64(art.CompileWall))
		return art, Hit, nil
	}
	if f, ok := sh.inflight[hash]; ok {
		sh.mu.Unlock()
		<-f.done
		c.coalesced.Add(1)
		if f.err != nil {
			return nil, Coalesced, f.err
		}
		c.compileSaved.Add(int64(f.art.CompileWall))
		return f.art, Coalesced, nil
	}
	// Neither resident nor in flight: this caller compiles.
	f := &flight{done: make(chan struct{})}
	sh.inflight[hash] = f
	sh.mu.Unlock()

	art, err := compile()
	f.art, f.err = art, err

	sh.mu.Lock()
	delete(sh.inflight, hash)
	if err == nil {
		c.insertLocked(sh, hash, art)
	}
	sh.mu.Unlock()
	close(f.done)

	c.misses.Add(1)
	if err != nil {
		return nil, Miss, err
	}
	return art, Miss, nil
}

// Lookup probes the cache without compiling; it reports whether the
// artifact was resident (in-flight compiles are not waited on).
func (c *Cache) Lookup(key Key) (*core.Artifact, bool) {
	hash := key.Hash()
	sh := c.shardFor(hash)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[hash]; ok {
		sh.lru.MoveToFront(e.elem)
		return e.art, true
	}
	return nil, false
}

// insertLocked adds a freshly compiled artifact to sh (whose mutex the
// caller holds) and evicts from the LRU tail until the shard is back under
// its budgets. An artifact larger than the whole byte budget is still
// admitted alone — the compile is already paid; it just evicts everything
// else and leaves on the next insert.
func (c *Cache) insertLocked(sh *shard, hash string, art *core.Artifact) {
	if _, ok := sh.entries[hash]; ok {
		return // a racing insert won; keep the resident entry
	}
	e := &entry{hash: hash, art: art, size: estimateSize(art)}
	e.elem = sh.lru.PushFront(e)
	sh.entries[hash] = e
	sh.bytes += e.size
	c.entries.Add(1)
	c.bytes.Add(e.size)
	for (len(sh.entries) > c.perEntries || sh.bytes > c.perBytes) && len(sh.entries) > 1 {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		sh.lru.Remove(back)
		delete(sh.entries, victim.hash)
		sh.bytes -= victim.size
		c.entries.Add(-1)
		c.bytes.Add(-victim.size)
		c.evictions.Add(1)
	}
}

// estimateSize approximates an artifact's resident footprint: the source
// text plus a per-cell and per-arc charge covering graph nodes, arcs,
// prepared simulator scratch, and slack for the lazily built machine
// preparation. The estimate only needs to be monotone in artifact size for
// the byte budget to be meaningful.
func estimateSize(art *core.Artifact) int64 {
	const perCell, perArc = 512, 128
	return int64(len(art.Source)) + int64(art.Cells)*perCell + int64(art.Arcs)*perArc
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Coalesced:    c.coalesced.Load(),
		Evictions:    c.evictions.Load(),
		Entries:      c.entries.Load(),
		Bytes:        c.bytes.Load(),
		CompileSaved: time.Duration(c.compileSaved.Load()),
	}
}
