package artifact

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"staticpipe/internal/core"
)

// srcN returns a small valid program distinct per n (n lands in a
// literal, so each n is a distinct source and therefore a distinct key).
func srcN(n int) string {
	return fmt.Sprintf(`
param m = 4;
input A : array[real] [1, m];
Y : array[real] :=
  forall i in [1, m]
  construct A[i] + %d.
  endall;
output Y;
`, n)
}

func compileN(t *testing.T, n int) *core.Artifact {
	t.Helper()
	art, err := core.CompileArtifact(srcN(n), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestKeyHashCanonical pins the content address: identical keys collide,
// the source and every keyed option are load-bearing, and the
// length-prefixed encoding is injective across the field boundary.
func TestKeyHashCanonical(t *testing.T) {
	base := KeyFor("src", core.Options{Passes: "dedup,balance"}, "", 0)
	if base.Hash() != base.Hash() {
		t.Fatal("hash is not deterministic")
	}
	variants := []Key{
		KeyFor("src2", core.Options{Passes: "dedup,balance"}, "", 0),
		KeyFor("src", core.Options{ForallScheme: 1, Passes: "dedup,balance"}, "", 0),
		KeyFor("src", core.Options{ForIterScheme: 1, Passes: "dedup,balance"}, "", 0),
		KeyFor("src", core.Options{LiteralControl: true, Passes: "dedup,balance"}, "", 0),
		KeyFor("src", core.Options{Passes: "dedup"}, "", 0),
		KeyFor("src", core.Options{Passes: "none"}, "", 0),
		KeyFor("src", core.Options{}, "", 0),
	}
	seen := map[string]Key{base.Hash(): base}
	for _, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %+v and %+v", prev, v)
		}
		seen[h] = v
	}
	// The lane width binds per run, and the placement arguments are not
	// read, so none of them is part of the address.
	if KeyFor("src", core.Options{Batch: 8}, "mincost", 8) != KeyFor("src", core.Options{}, "", 0) {
		t.Error("batch width or placement changes the key")
	}
	// Injectivity across the two string fields: without length prefixes
	// these two would encode the same bytes.
	a := Key{Source: "xy", Options: ""}
	b := Key{Source: "x", Options: "y"}
	if a.Hash() == b.Hash() {
		t.Fatal("field-boundary collision: encoding is not injective")
	}
}

// TestPassListSpellingsHitOneArtifact pins that two spellings of one
// pipeline, "" and " balance", are one cache entry: the second Get is a
// hit on the artifact the first compiled.
func TestPassListSpellingsHitOneArtifact(t *testing.T) {
	c := New(Config{})
	compiles := 0
	get := func(passes string) (*core.Artifact, Outcome) {
		opts := core.Options{Passes: passes}
		art, out, err := c.Get(KeyFor(srcN(1), opts, "", 0), func() (*core.Artifact, error) {
			compiles++
			return core.CompileArtifact(srcN(1), opts)
		})
		if err != nil {
			t.Fatal(err)
		}
		return art, out
	}
	first, out1 := get("")
	second, out2 := get(" balance")
	if out1 != Miss || out2 != Hit || compiles != 1 || first != second {
		t.Fatalf("outcomes %v then %v, %d compiles, same artifact %v; want miss then hit, 1 compile, same artifact",
			out1, out2, compiles, first == second)
	}
}

// TestSingleflightCoalesces pins compile deduplication: N concurrent Gets
// of one new key run the compile function exactly once; everyone shares
// the winner's artifact, and the stats record one miss plus N-1 coalesced
// lookups.
func TestSingleflightCoalesces(t *testing.T) {
	c := New(Config{Shards: 1})
	key := KeyFor(srcN(1), core.Options{}, "", 0)
	var compiles atomic.Int64
	compile := func() (*core.Artifact, error) {
		compiles.Add(1)
		time.Sleep(20 * time.Millisecond) // hold the flight open so waiters pile up
		return core.CompileArtifact(srcN(1), core.Options{})
	}

	const callers = 8
	arts := make([]*core.Artifact, callers)
	outcomes := make([]Outcome, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			art, out, err := c.Get(key, compile)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			arts[i], outcomes[i] = art, out
		}(i)
	}
	wg.Wait()

	if n := compiles.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1", n)
	}
	misses := 0
	for i := 1; i < callers; i++ {
		if arts[i] != arts[0] {
			t.Fatalf("caller %d got a different artifact pointer", i)
		}
	}
	for _, out := range outcomes {
		if out == Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers report Miss, want exactly 1", misses)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != callers-1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, %d served, 1 entry", st, callers-1)
	}

	// The key is now resident: one more Get is a plain hit, no compile.
	if _, out, err := c.Get(key, compile); err != nil || out != Hit {
		t.Fatalf("post-flight Get = %v outcome %v, want hit", err, out)
	}
	if n := compiles.Load(); n != 1 {
		t.Fatalf("resident hit recompiled (%d compiles)", n)
	}
}

// TestSingleflightErrorPropagates pins the failure contract: a compile
// error reaches every coalesced waiter, is never cached, and the next Get
// retries the compile.
func TestSingleflightErrorPropagates(t *testing.T) {
	c := New(Config{Shards: 1})
	key := KeyFor("not even a program", core.Options{}, "", 0)
	boom := errors.New("compile failed")
	var compiles atomic.Int64
	failing := func() (*core.Artifact, error) {
		compiles.Add(1)
		time.Sleep(10 * time.Millisecond)
		return nil, boom
	}

	const callers = 4
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			art, _, err := c.Get(key, failing)
			if !errors.Is(err, boom) || art != nil {
				t.Errorf("caller %d: art=%v err=%v, want the compile error", i, art, err)
			}
		}(i)
	}
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Fatalf("failing compile ran %d times during the flight, want 1", n)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error was cached: %+v", st)
	}

	// The error is gone with the flight: the next Get compiles again.
	if _, out, err := c.Get(key, failing); !errors.Is(err, boom) || out != Miss {
		t.Fatalf("retry = outcome %v err %v, want fresh miss with the error", out, err)
	}
	if n := compiles.Load(); n != 2 {
		t.Fatalf("retry did not recompile (%d compiles)", n)
	}
}

// TestCacheEvictionLRU pins the entry budget: the least recently used
// entry leaves first, and touching an entry (Get or Lookup) refreshes it.
func TestCacheEvictionLRU(t *testing.T) {
	c := New(Config{MaxEntries: 2, Shards: 1})
	keys := make([]Key, 3)
	arts := make([]*core.Artifact, 3)
	for i := range keys {
		keys[i] = KeyFor(srcN(10+i), core.Options{}, "", 0)
		arts[i] = compileN(t, 10+i)
	}
	get := func(i int) Outcome {
		_, out, err := c.Get(keys[i], func() (*core.Artifact, error) { return arts[i], nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	get(0)
	get(1)
	get(0) // refresh key 0: key 1 is now the LRU tail
	if out := get(2); out != Miss {
		t.Fatalf("insert of key 2 = %v, want miss", out)
	}
	if _, ok := c.Lookup(keys[1]); ok {
		t.Fatal("key 1 survived eviction; LRU order ignored the refresh of key 0")
	}
	if _, ok := c.Lookup(keys[0]); !ok {
		t.Fatal("recently used key 0 was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
	if out := get(1); out != Miss {
		t.Fatalf("evicted key re-Get = %v, want miss", out)
	}
}

// TestCacheEvictionBytes pins the byte budget: inserts evict from the LRU
// tail until the estimated footprint fits, and a single artifact larger
// than the whole budget is still admitted alone (the compile is paid;
// caching it can only help until the next insert).
func TestCacheEvictionBytes(t *testing.T) {
	a1, a2 := compileN(t, 20), compileN(t, 21)
	// Budget fits one artifact but not two.
	budget := estimateSize(a1) + estimateSize(a2)/2
	c := New(Config{MaxEntries: 100, MaxBytes: budget, Shards: 1})
	k1 := KeyFor(srcN(20), core.Options{}, "", 0)
	k2 := KeyFor(srcN(21), core.Options{}, "", 0)

	c.Get(k1, func() (*core.Artifact, error) { return a1, nil })
	c.Get(k2, func() (*core.Artifact, error) { return a2, nil })
	if _, ok := c.Lookup(k1); ok {
		t.Fatal("byte budget did not evict the older entry")
	}
	if _, ok := c.Lookup(k2); !ok {
		t.Fatal("newest entry was evicted instead of the tail")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 || st.Bytes != estimateSize(a2) {
		t.Fatalf("stats = %+v, want 1 eviction, 1 entry, %d bytes", st, estimateSize(a2))
	}

	// An artifact alone over budget still becomes resident.
	tiny := New(Config{MaxEntries: 100, MaxBytes: 1, Shards: 1})
	tiny.Get(k1, func() (*core.Artifact, error) { return a1, nil })
	if _, ok := tiny.Lookup(k1); !ok {
		t.Fatal("oversized artifact was not admitted alone")
	}
}
