package simcache

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfstress/internal/avf"
	"avfstress/internal/uarch"
)

func sampleResult(tag string) *avf.Result {
	r := &avf.Result{Config: "cfg-" + tag, Workload: tag, Cycles: 123, Instructions: 456, IPC: 3.7}
	r.AVF[uarch.ROB] = 0.25
	r.AVF[uarch.DL1] = 0.5
	r.Activity.Fetched = 789
	return r
}

func TestKeyDistinguishesPartsAndVersions(t *testing.T) {
	s := New(Options{})
	if s.Key("a", "b") == s.Key("a", "c") {
		t.Error("different parts share a key")
	}
	// Length-prefixing: concatenation across part boundaries must not
	// collide.
	if s.Key("ab", "c") == s.Key("a", "bc") {
		t.Error("part boundaries are ambiguous")
	}
	old := New(Options{Version: "v0-test"})
	if s.Key("a", "b") == old.Key("a", "b") {
		t.Error("engine version does not participate in the key")
	}
	// A nil store still produces usable (EngineVersion-scoped) keys.
	var nils *Store
	if nils.Key("a", "b") != s.Key("a", "b") {
		t.Error("nil-store key differs from default-version key")
	}
}

func TestDoMemoises(t *testing.T) {
	s := New(Options{})
	var sims int
	sim := func() (*avf.Result, error) { sims++; return sampleResult("w"), nil }
	k := s.Key("x")
	r1, err := s.Do(k, sim)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Do(k, sim)
	if err != nil {
		t.Fatal(err)
	}
	if sims != 1 {
		t.Errorf("simulated %d times, want 1", sims)
	}
	if r1 != r2 {
		t.Error("memory tier did not return the shared result")
	}
	if _, err := s.Do(s.Key("y"), sim); err != nil {
		t.Fatal(err)
	}
	if sims != 2 {
		t.Errorf("distinct key did not simulate (sims=%d)", sims)
	}
	st := s.Stats()
	if st.MemHits != 1 || st.Simulated != 2 || st.DiskHits != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	s := New(Options{})
	boom := errors.New("boom")
	k := s.Key("e")
	fail := func() (*avf.Result, error) { return nil, boom }
	if _, err := s.Do(k, fail); !errors.Is(err, boom) {
		t.Fatalf("error lost: %v", err)
	}
	ok := func() (*avf.Result, error) { return sampleResult("w"), nil }
	r, err := s.Do(k, ok)
	if err != nil || r == nil {
		t.Fatalf("failed call poisoned the key: %v", err)
	}
}

func TestDiskTierRoundTripsBitIdentically(t *testing.T) {
	dir := t.TempDir()
	want := sampleResult("disk")
	a := New(Options{Dir: dir})
	k := a.Key("k")
	if _, err := a.Do(k, func() (*avf.Result, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	// A second store on the same directory (a fresh process) must serve
	// the identical result from disk without simulating.
	b := New(Options{Dir: dir})
	got, err := b.Do(b.Key("k"), func() (*avf.Result, error) {
		t.Fatal("simulated despite a warm disk tier")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("disk round trip lost data:\nwant %+v\ngot  %+v", want, got)
	}
	if st := b.Stats(); st.DiskHits != 1 || st.Simulated != 0 {
		t.Errorf("stats %+v, want one disk hit and no simulation", st)
	}
}

func TestStaleEngineVersionSelfInvalidates(t *testing.T) {
	dir := t.TempDir()
	old := New(Options{Dir: dir, Version: "v-old"})
	if _, err := old.Do(old.Key("k"), func() (*avf.Result, error) { return sampleResult("old"), nil }); err != nil {
		t.Fatal(err)
	}
	cur := New(Options{Dir: dir, Version: "v-new"})
	sims := 0
	if _, err := cur.Do(cur.Key("k"), func() (*avf.Result, error) { sims++; return sampleResult("new"), nil }); err != nil {
		t.Fatal(err)
	}
	if sims != 1 {
		t.Error("stale engine version served a cached result")
	}
	// Each version owns its own subdirectory, so stale tiers are easy to
	// identify and sweep.
	for _, v := range []string{"v-old", "v-new"} {
		ents, err := os.ReadDir(filepath.Join(dir, v))
		if err != nil || len(ents) != 1 {
			t.Errorf("version dir %s: %d entries, err %v", v, len(ents), err)
		}
	}
}

func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	k := s.Key("k")
	if _, err := s.Do(k, func() (*avf.Result, error) { return sampleResult("a"), nil }); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, EngineVersion, k.Hex()+".json")
	if err := os.WriteFile(path, []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{Dir: dir})
	sims := 0
	if _, err := fresh.Do(fresh.Key("k"), func() (*avf.Result, error) { sims++; return sampleResult("a"), nil }); err != nil {
		t.Fatal(err)
	}
	if sims != 1 {
		t.Error("corrupt entry was served instead of re-simulating")
	}
}

func TestSingleflightDeduplicatesConcurrentCalls(t *testing.T) {
	s := New(Options{})
	k := s.Key("hot")
	var sims atomic.Int64
	gate := make(chan struct{})
	sim := func() (*avf.Result, error) {
		sims.Add(1)
		<-gate // hold the flight open until every caller has queued
		return sampleResult("w"), nil
	}
	const callers = 8
	var wg sync.WaitGroup
	results := make([]*avf.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Do(k, sim)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	// Wait until the losers are parked on the flight, then release it.
	for s.Stats().Deduped < callers-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if n := sims.Load(); n != 1 {
		t.Errorf("%d concurrent identical calls ran %d simulations, want 1", callers, n)
	}
	for _, r := range results {
		if r != results[0] {
			t.Error("waiters did not share the winner's result")
		}
	}
	if st := s.Stats(); st.Deduped != callers-1 {
		t.Errorf("deduped = %d, want %d", st.Deduped, callers-1)
	}
}

func TestNilStoreJustSimulates(t *testing.T) {
	var s *Store
	sims := 0
	r, err := s.Do(s.Key("k"), func() (*avf.Result, error) { sims++; return sampleResult("w"), nil })
	if err != nil || r == nil || sims != 1 {
		t.Fatalf("nil store: r=%v err=%v sims=%d", r, err, sims)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil store stats %+v", st)
	}
}

// TestViewsShareTiersButCountLocally: two views of one store share the
// memoised results (the second view's request is a mem hit) while each
// view's LocalStats attributes only its own traffic — the per-job
// accounting the avfstressd service reports.
func TestViewsShareTiersButCountLocally(t *testing.T) {
	root := New(Options{})
	a, b := root.View(), root.View()
	key := root.Key("cfg", "prog", "rc")
	ra, err := a.Do(key, func() (*avf.Result, error) {
		return &avf.Result{Workload: "x", Cycles: 7}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Do(key, func() (*avf.Result, error) {
		t.Error("second view re-simulated a shared key")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Error("views returned different result objects for one key")
	}
	as, bs := a.LocalStats(), b.LocalStats()
	if as.Simulated != 1 || as.MemHits != 0 {
		t.Errorf("view a local stats %+v, want 1 sim", as)
	}
	if bs.Simulated != 0 || bs.MemHits != 1 {
		t.Errorf("view b local stats %+v, want 1 mem hit", bs)
	}
	if g := root.Stats(); g.Simulated != 1 || g.MemHits != 1 {
		t.Errorf("global stats %+v, want the union of both views", g)
	}
	if root.LocalStats() != (Stats{}) {
		t.Errorf("root handle counted traffic it did not serve: %+v", root.LocalStats())
	}
	if bs.Hits() != 1 {
		t.Errorf("Hits() = %d, want 1", bs.Hits())
	}
	var nilStore *Store
	if nilStore.View() != nil {
		t.Error("nil store's view is not nil")
	}
	if nilStore.LocalStats() != (Stats{}) {
		t.Error("nil store local stats non-zero")
	}
}

func TestDoBlob(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	key := s.Key("blob", "target-1")
	calls := 0
	compute := func() ([]byte, error) {
		calls++
		return []byte{0x01}, nil
	}
	v, err := s.DoBlob(key, compute)
	if err != nil || len(v) != 1 || v[0] != 0x01 {
		t.Fatalf("DoBlob = %v, %v", v, err)
	}
	if v, _ = s.DoBlob(key, compute); v[0] != 0x01 {
		t.Fatal("memory-tier blob hit wrong")
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := s.Stats()
	if st.MemHits != 1 || st.Simulated != 1 {
		t.Fatalf("stats %+v, want 1 mem hit / 1 sim", st)
	}

	// A fresh store sharing the directory serves the blob from disk.
	s2 := New(Options{Dir: dir})
	v, err = s2.DoBlob(key, func() ([]byte, error) { t.Fatal("disk tier missed"); return nil, nil })
	if err != nil || v[0] != 0x01 {
		t.Fatalf("disk blob = %v, %v", v, err)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats %+v, want 1 disk hit", st)
	}

	// Errors are returned but never cached.
	ekey := s.Key("blob", "err")
	if _, err := s.DoBlob(ekey, func() ([]byte, error) { return nil, errors.New("boom") }); err == nil {
		t.Fatal("error not propagated")
	}
	if v, err := s.DoBlob(ekey, func() ([]byte, error) { return []byte{9}, nil }); err != nil || v[0] != 9 {
		t.Fatalf("retry after error = %v, %v", v, err)
	}

	// A nil store runs compute directly.
	var nilStore *Store
	if v, err := nilStore.DoBlob(key, func() ([]byte, error) { return []byte{7}, nil }); err != nil || v[0] != 7 {
		t.Fatalf("nil store DoBlob = %v, %v", v, err)
	}
}

func TestDoBlobSingleflight(t *testing.T) {
	s := New(Options{})
	key := s.Key("blob", "flight")
	var calls atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, err := s.DoBlob(key, func() ([]byte, error) {
				calls.Add(1)
				time.Sleep(5 * time.Millisecond)
				return []byte{42}, nil
			})
			if err != nil || v[0] != 42 {
				t.Errorf("DoBlob = %v, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", n)
	}
}

func TestGetPutBlob(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	k := s.Key("blob")
	if _, ok := s.GetBlob(k); ok {
		t.Fatal("empty store reported a blob hit")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("stats %+v, want 1 miss", st)
	}
	s.PutBlob(k, []byte("payload"))
	if v, ok := s.GetBlob(k); !ok || string(v) != "payload" {
		t.Fatalf("memory tier lost the blob: %q %v", v, ok)
	}
	// A fresh store on the same directory serves the blob from disk.
	s2 := New(Options{Dir: dir})
	if v, ok := s2.GetBlob(k); !ok || string(v) != "payload" {
		t.Fatalf("disk tier lost the blob: %q %v", v, ok)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("stats %+v, want 1 disk hit and no misses", st)
	}
	// Nil store: always a miss, PutBlob a no-op.
	var nils *Store
	nils.PutBlob(k, []byte("x"))
	if _, ok := nils.GetBlob(k); ok {
		t.Error("nil store reported a hit")
	}
}

func TestBlobCapEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	s.st.blobCap = 100
	pay := make([]byte, 40)
	ka, kb, kc := s.Key("a"), s.Key("b"), s.Key("c")
	s.PutBlob(ka, pay)
	s.PutBlob(kb, pay)
	// Touch a so b is the least recently used.
	if _, ok := s.GetBlob(ka); !ok {
		t.Fatal("a missing before cap hit")
	}
	s.PutBlob(kc, pay) // 120 bytes resident -> evict b
	if st := s.Stats(); st.Evicted != 1 {
		t.Fatalf("stats %+v, want exactly 1 eviction", st)
	}
	if _, ok := s.GetBlob(ka); !ok {
		t.Error("recently used blob a evicted")
	}
	if _, ok := s.GetBlob(kc); !ok {
		t.Error("just-inserted blob c evicted")
	}
	// b fell out of memory but survives on disk: a hit, not a miss.
	before := s.Stats()
	if _, ok := s.GetBlob(kb); !ok {
		t.Fatal("evicted blob lost its disk entry")
	}
	if st := s.Stats(); st.DiskHits != before.DiskHits+1 {
		t.Errorf("stats %+v, want the reload counted as a disk hit", st)
	}
}

// TestBlobStatsPerViewAttribution pins the per-handle blob attribution
// contract: two views of one store see only their own blob-tier
// traffic in LocalStats, while store-wide Stats aggregates both.
func TestBlobStatsPerViewAttribution(t *testing.T) {
	s := New(Options{})
	busy, idle := s.View(), s.View()

	bkey := s.Key("attr-blob")
	if _, err := busy.DoBlob(bkey, func() ([]byte, error) { return []byte("v"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := busy.GetBlob(bkey); !ok { // memory hit
		t.Fatal("warm GetBlob missed")
	}
	if _, ok := busy.GetBlob(s.Key("absent")); ok {
		t.Fatal("absent key hit")
	}

	bs := busy.LocalStats()
	if bs.BlobHits != 1 || bs.BlobMisses != 1 {
		t.Errorf("busy view blob attribution = %d/%d, want 1/1 (stats %+v)", bs.BlobHits, bs.BlobMisses, bs)
	}
	is := idle.LocalStats()
	if is != (Stats{}) {
		t.Errorf("idle view attributed traffic it never issued: %+v", is)
	}
	gs := s.Stats()
	if gs.BlobHits != bs.BlobHits || gs.BlobMisses != bs.BlobMisses {
		t.Errorf("store-wide stats %+v do not aggregate the busy view's %+v", gs, bs)
	}

	// A second view hitting the same blob attributes to itself only.
	if _, ok := idle.GetBlob(bkey); !ok {
		t.Fatal("second view missed the shared blob")
	}
	if is := idle.LocalStats(); is.BlobHits != 1 || is.MemHits != 1 {
		t.Errorf("second view stats = %+v, want its own mem+blob hit", is)
	}
	if bs2 := busy.LocalStats(); bs2.BlobHits != bs.BlobHits {
		t.Errorf("first view's counters moved (%d -> %d) on the second view's traffic", bs.BlobHits, bs2.BlobHits)
	}
}

// TestStatsStringKeepsAnchoredPrefix pins the CLI stats line: scripts
// grep the first four fields, so the blob fields must append, never
// reshape.
func TestStatsStringKeepsAnchoredPrefix(t *testing.T) {
	st := Stats{MemHits: 1, DiskHits: 2, Simulated: 3, Deduped: 4,
		Misses: 5, Evicted: 6, Quarantined: 7,
		BlobHits: 8, BlobMisses: 9}
	want := "mem=1 disk=2 sim=3 dedup=4 miss=5 evict=6 quar=7 blob=8/9"
	if got := st.String(); got != want {
		t.Errorf("Stats.String() = %q, want %q", got, want)
	}
}
