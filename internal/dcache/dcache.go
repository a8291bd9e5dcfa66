// Package dcache implements the disconnected-operation result cache
// policy (E17): a TTL+LRU cache of server results keyed by (server,
// request digest), held at the proxy's support station so repeated
// queries are answered at the fixed edge without re-executing at the
// server.
//
// The cache is a pure policy object: it owns no timers and touches no
// protocol state. rdpcore consults it when a proxy is about to issue a
// ServerRequest and fills it when a ServerResult arrives. Consistency
// rule: a cached result may be served for at most TTL after it was
// stored — RDP requests are queries, and the TTL bounds the staleness a
// repeated query can observe (DESIGN.md §12). The cache is volatile by
// design: an MSS crash clears it, which costs recomputation but never
// correctness.
package dcache

import (
	"time"

	"repro/internal/ids"
)

// Config sets the cache policy. The zero value disables caching
// entirely (Enabled returns false), keeping every existing experiment's
// message trace byte-identical.
type Config struct {
	// TTL bounds how long a stored result may be served. Zero means no
	// expiry: entries live until evicted by the byte or entry budget.
	TTL time.Duration
	// MaxBytes is the payload-byte budget; least-recently-used entries
	// are evicted to stay under it. Zero means no byte budget.
	MaxBytes int64
	// MaxEntries caps the number of cached results. Zero means no cap.
	MaxEntries int
}

// Enabled reports whether the configuration describes an actual cache.
// A cache with neither a byte budget nor an entry cap is unbounded and
// therefore not allowed; such configs (including the zero value) are
// treated as "caching off".
func (c Config) Enabled() bool { return c.MaxBytes > 0 || c.MaxEntries > 0 }

// Outcome classifies one lookup.
type Outcome uint8

// Lookup outcomes.
const (
	// Miss: no entry for the key.
	Miss Outcome = iota
	// Hit: a live entry was found and returned.
	Hit
	// Stale: an entry existed but its TTL had passed; it was evicted and
	// nothing was returned.
	Stale
)

// String names the outcome for traces and tests.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Stale:
		return "stale"
	default:
		return "miss"
	}
}

// Key identifies one cacheable computation: the server asked and the
// digest of the request payload.
type Key struct {
	Server ids.Server
	Digest uint64
}

// Digest hashes a request payload with FNV-1a (64 bit). Two requests to
// the same server with equal payloads are the same computation.
func Digest(payload []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range payload {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// entry is one cached result, threaded on the LRU list.
type entry struct {
	key        Key
	payload    []byte
	storedAt   time.Duration
	prev, next *entry // LRU list; head = most recent
}

// Cache is a TTL+LRU result cache. Not safe for concurrent use: one
// cache lives inside one station's event-serialized state.
//
// An entry that leaves the cache (evicted, or found Stale) drops its
// payload and waits on the spare chain for the next Put, so a warm cache
// allocates no entries: live plus spare entries never exceed the most
// the cache ever held at once.
type Cache struct {
	cfg        Config
	entries    map[Key]*entry
	head, tail *entry
	spare      *entry // removed entries, chained through next
	bytes      int64
	evictions  int64
}

// New builds a cache with the given policy. It returns nil for a
// disabled config, and every method tolerates a nil receiver, so
// callers can hold the pointer unconditionally.
func New(cfg Config) *Cache {
	if !cfg.Enabled() {
		return nil
	}
	return &Cache{cfg: cfg, entries: make(map[Key]*entry)}
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.entries)
}

// Bytes returns the payload bytes currently held.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.bytes
}

// Evictions returns the number of entries evicted by the byte or entry
// budget (TTL expiries are reported per-lookup as Stale, not counted
// here).
func (c *Cache) Evictions() int64 {
	if c == nil {
		return 0
	}
	return c.evictions
}

// Get looks the key up at virtual time now. On Hit the stored payload
// is returned (callers must not mutate it) and the entry becomes most
// recently used. On Stale the expired entry is dropped.
func (c *Cache) Get(key Key, now time.Duration) ([]byte, Outcome) {
	if c == nil {
		return nil, Miss
	}
	e, ok := c.entries[key]
	if !ok {
		return nil, Miss
	}
	if c.cfg.TTL > 0 && now-e.storedAt > c.cfg.TTL {
		c.remove(e)
		return nil, Stale
	}
	c.moveToFront(e)
	return e.payload, Hit
}

// Put stores a result, replacing any previous entry for the key, then
// evicts least-recently-used entries until the budgets hold again. A
// payload larger than the entire byte budget is not cached, and the
// key's older entry goes: it is no longer the newest result.
func (c *Cache) Put(key Key, payload []byte, now time.Duration) {
	if c == nil {
		return
	}
	e, ok := c.entries[key]
	if c.cfg.MaxBytes > 0 && int64(len(payload)) > c.cfg.MaxBytes {
		if ok {
			c.remove(e)
		}
		return
	}
	if ok {
		c.bytes += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		e.storedAt = now
		c.moveToFront(e)
	} else {
		if e = c.spare; e != nil {
			c.spare = e.next
		} else {
			e = new(entry)
		}
		e.key, e.payload, e.storedAt = key, payload, now
		c.entries[key] = e
		c.bytes += int64(len(payload))
		c.pushFront(e)
	}
	for (c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes) ||
		(c.cfg.MaxEntries > 0 && len(c.entries) > c.cfg.MaxEntries) {
		c.evictions++
		c.remove(c.tail)
	}
}

func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// remove takes e out of the cache and onto the spare chain.
func (c *Cache) remove(e *entry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.payload))
	*e = entry{next: c.spare}
	c.spare = e
}
