package dcache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func key(server uint32, payload string) Key {
	return Key{Server: 1, Digest: Digest([]byte(payload))}
}

func TestDisabledConfig(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config must be disabled")
	}
	if (Config{TTL: time.Second}).Enabled() {
		t.Error("TTL alone (unbounded storage) must be disabled")
	}
	if c := New(Config{}); c != nil {
		t.Error("New(disabled) must return nil")
	}
	// Every method must tolerate the nil cache.
	var c *Cache
	if _, out := c.Get(key(1, "q"), 0); out != Miss {
		t.Errorf("nil Get outcome = %v, want miss", out)
	}
	c.Put(key(1, "q"), []byte("r"), 0)
	if c.Len() != 0 || c.Bytes() != 0 || c.Evictions() != 0 {
		t.Error("nil cache reports non-zero accounting")
	}
}

func TestHitMissStale(t *testing.T) {
	c := New(Config{TTL: 10 * time.Second, MaxEntries: 8})
	k := key(1, "query")
	if _, out := c.Get(k, 0); out != Miss {
		t.Fatalf("empty cache Get = %v, want miss", out)
	}
	c.Put(k, []byte("result"), time.Second)
	got, out := c.Get(k, 5*time.Second)
	if out != Hit || string(got) != "result" {
		t.Fatalf("Get = %q,%v; want result,hit", got, out)
	}
	// Past the TTL the entry is stale: reported once, then gone.
	if _, out := c.Get(k, 12*time.Second); out != Stale {
		t.Fatalf("expired Get = %v, want stale", out)
	}
	if _, out := c.Get(k, 12*time.Second); out != Miss {
		t.Fatalf("Get after stale eviction = %v, want miss", out)
	}
	if c.Len() != 0 {
		t.Errorf("stale entry not removed: len=%d", c.Len())
	}
}

func TestLRUEvictionByEntries(t *testing.T) {
	c := New(Config{MaxEntries: 3})
	for i := 0; i < 3; i++ {
		c.Put(key(1, fmt.Sprint("q", i)), []byte("r"), 0)
	}
	// Touch q0 so q1 becomes the LRU victim.
	if _, out := c.Get(key(1, "q0"), 0); out != Hit {
		t.Fatal("expected q0 hit")
	}
	c.Put(key(1, "q3"), []byte("r"), 0)
	if _, out := c.Get(key(1, "q1"), 0); out != Miss {
		t.Error("q1 should have been the LRU eviction victim")
	}
	for _, q := range []string{"q0", "q2", "q3"} {
		if _, out := c.Get(key(1, q), 0); out != Hit {
			t.Errorf("%s evicted; want it retained", q)
		}
	}
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions())
	}
}

func TestByteBudgetEviction(t *testing.T) {
	c := New(Config{MaxBytes: 100})
	c.Put(key(1, "a"), make([]byte, 60), 0)
	c.Put(key(1, "b"), make([]byte, 30), 0)
	if c.Bytes() != 90 {
		t.Fatalf("bytes = %d, want 90", c.Bytes())
	}
	// 40 more bytes must push out the LRU entry ("a").
	c.Put(key(1, "c"), make([]byte, 40), 0)
	if _, out := c.Get(key(1, "a"), 0); out != Miss {
		t.Error("oldest entry survived the byte budget")
	}
	if c.Bytes() != 70 || c.Len() != 2 {
		t.Errorf("bytes=%d len=%d, want 70/2", c.Bytes(), c.Len())
	}
	// An oversized payload is refused outright, evicting nothing.
	c.Put(key(1, "huge"), make([]byte, 101), 0)
	if c.Len() != 2 {
		t.Error("oversized payload disturbed the cache")
	}
}

func TestPutReplaceAdjustsBytes(t *testing.T) {
	c := New(Config{MaxBytes: 100})
	k := key(1, "q")
	c.Put(k, make([]byte, 80), 0)
	c.Put(k, make([]byte, 10), time.Second)
	if c.Bytes() != 10 || c.Len() != 1 {
		t.Errorf("bytes=%d len=%d after replace, want 10/1", c.Bytes(), c.Len())
	}
	// The replacement refreshed storedAt, so TTL counts from the second Put.
	c2 := New(Config{TTL: 5 * time.Second, MaxEntries: 4})
	c2.Put(k, []byte("old"), 0)
	c2.Put(k, []byte("new"), 4*time.Second)
	if got, out := c2.Get(k, 8*time.Second); out != Hit || string(got) != "new" {
		t.Errorf("Get after replace = %q,%v; want new,hit", got, out)
	}
}

func TestDigestDistinguishesPayloads(t *testing.T) {
	if Digest([]byte("a")) == Digest([]byte("b")) {
		t.Error("digest collision on trivial inputs")
	}
	if Digest(nil) != Digest([]byte{}) {
		t.Error("nil and empty payloads must digest equally")
	}
	// Same digest, different server => different key.
	k1 := Key{Server: 1, Digest: Digest([]byte("q"))}
	k2 := Key{Server: 2, Digest: Digest([]byte("q"))}
	if k1 == k2 {
		t.Error("server must be part of the key")
	}
}

// An oversized payload is not cached, and it supersedes the key's older
// result: that entry must not be served any more.
func TestOversizedPutDropsOlderEntry(t *testing.T) {
	c := New(Config{MaxBytes: 100})
	k := key(1, "q")
	c.Put(k, []byte("old"), 0)
	c.Put(key(1, "other"), []byte("kept"), 0)
	c.Put(k, make([]byte, 101), time.Second)
	if got, out := c.Get(k, time.Second); out != Miss {
		t.Errorf("Get after an oversized Put = %q,%v; want miss", got, out)
	}
	if c.Len() != 1 || c.Bytes() != 4 || c.Evictions() != 0 {
		t.Errorf("len=%d bytes=%d evictions=%d, want 1/4/0", c.Len(), c.Bytes(), c.Evictions())
	}
	if got, out := c.Get(key(1, "other"), time.Second); out != Hit || string(got) != "kept" {
		t.Errorf("other key = %q,%v; want kept,hit", got, out)
	}
}

// refLRU is the cache's specification as the plainest code: a slice,
// most recently used first.
type refLRU struct {
	cfg       Config
	list      []refEntry
	evictions int64
}

type refEntry struct {
	key      Key
	payload  []byte
	storedAt time.Duration
}

func (r *refLRU) find(k Key) int {
	for i, e := range r.list {
		if e.key == k {
			return i
		}
	}
	return -1
}

func (r *refLRU) bytes() int64 {
	var b int64
	for _, e := range r.list {
		b += int64(len(e.payload))
	}
	return b
}

func (r *refLRU) get(k Key, now time.Duration) ([]byte, Outcome) {
	i := r.find(k)
	if i < 0 {
		return nil, Miss
	}
	e := r.list[i]
	r.list = append(r.list[:i], r.list[i+1:]...)
	if r.cfg.TTL > 0 && now-e.storedAt > r.cfg.TTL {
		return nil, Stale
	}
	r.list = append([]refEntry{e}, r.list...)
	return e.payload, Hit
}

func (r *refLRU) put(k Key, payload []byte, now time.Duration) {
	if i := r.find(k); i >= 0 {
		r.list = append(r.list[:i], r.list[i+1:]...)
	}
	if r.cfg.MaxBytes > 0 && int64(len(payload)) > r.cfg.MaxBytes {
		return
	}
	r.list = append([]refEntry{{key: k, payload: payload, storedAt: now}}, r.list...)
	for (r.cfg.MaxBytes > 0 && r.bytes() > r.cfg.MaxBytes) ||
		(r.cfg.MaxEntries > 0 && len(r.list) > r.cfg.MaxEntries) {
		r.list = r.list[:len(r.list)-1]
		r.evictions++
	}
}

// TestCacheMatchesReferenceLRU drives the cache and the reference with the
// same random Put/Get sequence over a small key pool — budgets by entries,
// by bytes and both, with and without a TTL — and compares every outcome
// and payload and the accounting after each step. Every payload is unique
// (it names the Put that stored it), so an entry the spare chain hands
// back still carrying an old key or payload shows; some exceed the byte
// budget.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	cfgs := []Config{
		{MaxEntries: 4},
		{MaxBytes: 64},
		{TTL: 50 * time.Millisecond, MaxEntries: 6, MaxBytes: 96},
		{TTL: 20 * time.Millisecond, MaxEntries: 3},
	}
	for ci, cfg := range cfgs {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, ref := New(cfg), &refLRU{cfg: cfg}
			var now time.Duration
			for step := 0; step < 2000; step++ {
				now += time.Duration(rng.Intn(5)) * time.Millisecond
				k := key(1, fmt.Sprint("q", rng.Intn(10)))
				var what string
				if rng.Intn(2) == 0 {
					payload := []byte(fmt.Sprintf("%d/%d/%s", seed, step, make([]byte, rng.Intn(60))))
					what = fmt.Sprintf("put %d B", len(payload))
					c.Put(k, payload, now)
					ref.put(k, payload, now)
				} else {
					got, out := c.Get(k, now)
					want, wantOut := ref.get(k, now)
					what = "get"
					if out != wantOut || string(got) != string(want) {
						t.Fatalf("cfg %d seed %d step %d: Get = %q,%v; reference %q,%v", ci, seed, step, got, out, want, wantOut)
					}
				}
				if c.Len() != len(ref.list) || c.Bytes() != ref.bytes() || c.Evictions() != ref.evictions {
					t.Fatalf("cfg %d seed %d step %d (%s): len/bytes/evictions %d/%d/%d; reference %d/%d/%d",
						ci, seed, step, what, c.Len(), c.Bytes(), c.Evictions(), len(ref.list), ref.bytes(), ref.evictions)
				}
			}
		}
	}
}

// TestResultCacheAllocBudget: a warm, full cache allocates nothing per
// operation. A miss whose Put evicts the least recently used entry takes
// that entry's record off the spare chain, and so does a Put after a
// Stale lookup dropped the expired entry. (At the parent each such Put
// allocated its entry: 1 a cycle.)
func TestResultCacheAllocBudget(t *testing.T) {
	const size = 64
	c := New(Config{TTL: time.Second, MaxEntries: size})
	keys := make([]Key, 4*size)
	for i := range keys {
		keys[i] = Key{Server: 1, Digest: uint64(i)}
	}
	payload := []byte("result")
	var now time.Duration
	i := 0
	evict := func() {
		k := keys[i%len(keys)]
		i++
		if _, out := c.Get(k, now); out != Miss {
			t.Fatalf("Get = %v, want miss", out)
		}
		c.Put(k, payload, now)
	}
	for j := 0; j < 8*len(keys); j++ {
		evict()
	}
	if avg := testing.AllocsPerRun(1000, evict); avg != 0 {
		t.Errorf("miss, Put and eviction: %.2f allocs, budget 0", avg)
	}
	stale := func() {
		k := keys[i%size]
		i++
		now += 2 * time.Second
		if _, out := c.Get(k, now); out != Stale {
			t.Fatalf("Get = %v, want stale", out)
		}
		c.Put(k, payload, now)
	}
	c, i = New(Config{TTL: time.Second, MaxEntries: size}), 0
	for j := 0; j < size; j++ {
		c.Put(keys[j], payload, now)
	}
	for j := 0; j < 8*size; j++ {
		stale()
	}
	if avg := testing.AllocsPerRun(1000, stale); avg != 0 {
		t.Errorf("Stale and Put: %.2f allocs, budget 0", avg)
	}
	if c.Evictions() != 0 || c.Len() != size {
		t.Errorf("evictions %d len %d, want 0/%d", c.Evictions(), c.Len(), size)
	}
}
