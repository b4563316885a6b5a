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
	old := New(Options{version: "v0-test"})
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
	r1, err := Do(s, k, Results, sim)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Do(s, k, Results, sim)
	if err != nil {
		t.Fatal(err)
	}
	if sims != 1 {
		t.Errorf("simulated %d times, want 1", sims)
	}
	if r1 != r2 {
		t.Error("memory tier did not return the shared result")
	}
	if _, err := Do(s, s.Key("y"), Results, sim); err != nil {
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
	if _, err := Do(s, k, Results, fail); !errors.Is(err, boom) {
		t.Fatalf("error lost: %v", err)
	}
	ok := func() (*avf.Result, error) { return sampleResult("w"), nil }
	r, err := Do(s, k, Results, ok)
	if err != nil || r == nil {
		t.Fatalf("failed call poisoned the key: %v", err)
	}
}

func TestDiskTierRoundTripsBitIdentically(t *testing.T) {
	dir := t.TempDir()
	want := sampleResult("disk")
	a := New(Options{Dir: dir})
	k := a.Key("k")
	if _, err := Do(a, k, Results, func() (*avf.Result, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	// A second store on the same directory (a fresh process) must serve
	// the identical result from disk without simulating.
	b := New(Options{Dir: dir})
	got, err := Do(b, b.Key("k"), Results, func() (*avf.Result, error) {
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
	old := New(Options{Dir: dir, version: "v-old"})
	if _, err := Do(old, old.Key("k"), Results, func() (*avf.Result, error) { return sampleResult("old"), nil }); err != nil {
		t.Fatal(err)
	}
	cur := New(Options{Dir: dir, version: "v-new"})
	sims := 0
	if _, err := Do(cur, cur.Key("k"), Results, func() (*avf.Result, error) { sims++; return sampleResult("new"), nil }); err != nil {
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
	if _, err := Do(s, k, Results, func() (*avf.Result, error) { return sampleResult("a"), nil }); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, EngineVersion, k.Hex()+".json")
	if err := os.WriteFile(path, []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{Dir: dir})
	sims := 0
	if _, err := Do(fresh, fresh.Key("k"), Results, func() (*avf.Result, error) { sims++; return sampleResult("a"), nil }); err != nil {
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
			r, err := Do(s, k, Results, sim)
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
	r, err := Do(s, s.Key("k"), Results, func() (*avf.Result, error) { sims++; return sampleResult("w"), nil })
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
	ra, err := Do(a, key, Results, func() (*avf.Result, error) {
		return &avf.Result{Workload: "x", Cycles: 7}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Do(b, key, Results, func() (*avf.Result, error) {
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
	var nilStore *Store
	if nilStore.View() != nil {
		t.Error("nil store's view is not nil")
	}
	if nilStore.LocalStats() != (Stats{}) {
		t.Error("nil store local stats non-zero")
	}
}

// bytesCodec stores raw payload bytes as ".bin" entries.
var bytesCodec = Codec[[]byte]{
	Ext:    ".bin",
	Encode: func(b []byte) ([]byte, error) { return b, nil },
	Decode: func(b []byte) ([]byte, error) { return b, nil },
}

// TestDoBlob: values of any codec memoise in memory, round-trip through
// the disk tier and count as blob traffic when the extension is ".bin".
func TestDoBlob(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	key := s.Key("blob", "target-1")
	calls := 0
	compute := func() ([]byte, error) {
		calls++
		return []byte{0x01}, nil
	}
	v, err := Do(s, key, bytesCodec, compute)
	if err != nil || len(v) != 1 || v[0] != 0x01 {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if v, _ = Do(s, key, bytesCodec, compute); v[0] != 0x01 {
		t.Fatal("memory-tier blob hit wrong")
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := s.Stats()
	if st.MemHits != 1 || st.Simulated != 1 || st.BlobHits != 1 || st.BlobMisses != 1 {
		t.Fatalf("stats %+v, want 1 mem hit / 1 sim, both blob traffic", st)
	}

	// A fresh store sharing the directory serves the blob from disk.
	s2 := New(Options{Dir: dir})
	v, err = Do(s2, key, bytesCodec, func() ([]byte, error) { t.Fatal("disk tier missed"); return nil, nil })
	if err != nil || v[0] != 0x01 {
		t.Fatalf("disk blob = %v, %v", v, err)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.BlobHits != 1 {
		t.Fatalf("stats %+v, want 1 disk hit", st)
	}

	// Errors are returned but never cached.
	ekey := s.Key("blob", "err")
	if _, err := Do(s, ekey, bytesCodec, func() ([]byte, error) { return nil, errors.New("boom") }); err == nil {
		t.Fatal("error not propagated")
	}
	if v, err := Do(s, ekey, bytesCodec, func() ([]byte, error) { return []byte{9}, nil }); err != nil || v[0] != 9 {
		t.Fatalf("retry after error = %v, %v", v, err)
	}

	// A nil store runs compute directly.
	var nilStore *Store
	if v, err := Do(nilStore, key, bytesCodec, func() ([]byte, error) { return []byte{7}, nil }); err != nil || v[0] != 7 {
		t.Fatalf("nil store Do = %v, %v", v, err)
	}
}

// TestDoBlobSingleflight: concurrent identical ".bin" requests share
// one computation.
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
			v, err := Do(s, key, bytesCodec, func() ([]byte, error) {
				calls.Add(1)
				time.Sleep(5 * time.Millisecond)
				return []byte{42}, nil
			})
			if err != nil || v[0] != 42 {
				t.Errorf("Do = %v, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (singleflight)", n)
	}
}

// TestGetPutBlob: a computed ".bin" payload lands on disk under the
// codec's extension and a fresh store on the directory reads it back
// byte for byte, counted as a disk hit and not as a computation; a nil
// store memoises nothing.
func TestGetPutBlob(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	k := s.Key("blob")
	if _, err := Do(s, k, bytesCodec, func() ([]byte, error) { return []byte("payload"), nil }); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BlobMisses != 1 || st.Simulated != 1 {
		t.Errorf("stats %+v, want 1 blob computation", st)
	}
	if _, err := os.Stat(filepath.Join(dir, EngineVersion, k.Hex()+".bin")); err != nil {
		t.Fatalf("no .bin disk entry: %v", err)
	}
	s2 := New(Options{Dir: dir})
	v, err := Do(s2, k, bytesCodec, func() ([]byte, error) { t.Fatal("disk tier lost the blob"); return nil, nil })
	if err != nil || string(v) != "payload" {
		t.Fatalf("disk blob = %q, %v", v, err)
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.BlobHits != 1 || st.Simulated != 0 {
		t.Errorf("stats %+v, want 1 disk hit and no computation", st)
	}
	var nils *Store
	calls := 0
	for range 2 {
		if _, err := Do(nils, k, bytesCodec, func() ([]byte, error) { calls++; return []byte("x"), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Errorf("nil store computed %d times in 2 calls, want 2", calls)
	}
}

// TestPanickingComputeReleasesKey: a compute that panics memoises
// nothing and wedges nothing — a waiter parked on it gets an error
// (not a zero value), the panic reaches the computing caller, and the
// next call on the key computes afresh.
func TestPanickingComputeReleasesKey(t *testing.T) {
	s := New(Options{})
	key := s.Key("panics")
	started, gate := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		Do(s, key, bytesCodec, func() ([]byte, error) {
			close(started)
			<-gate
			panic("compute blew up")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		v, err := Do(s, key, bytesCodec, func() ([]byte, error) { return []byte("waiter computed"), nil })
		if err == nil {
			err = errors.New("waiter got value " + string(v))
		}
		waiter <- err
	}()
	for s.Stats().Deduped == 0 {
		runtime.Gosched()
	}
	close(gate)
	if r := <-recovered; r == nil {
		t.Fatal("the panic did not reach the computing caller")
	}
	select {
	case err := <-waiter:
		if !errors.Is(err, errPanicked) {
			t.Errorf("waiter error = %v, want the panic error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter on a panicked compute never returned")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := Do(s, key, bytesCodec, func() ([]byte, error) { return []byte("ok"), nil })
		if err != nil || string(v) != "ok" {
			t.Errorf("call after the panic = %q, %v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("call after a panicked compute never returned: the key is wedged")
	}
}

func TestBlobCapEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	s.st.cap = 100
	pay := make([]byte, 40)
	put := func(k Key) {
		t.Helper()
		if _, err := Do(s, k, bytesCodec, func() ([]byte, error) { return pay, nil }); err != nil {
			t.Fatal(err)
		}
	}
	hit := func(k Key) {
		t.Helper()
		if _, err := Do(s, k, bytesCodec, func() ([]byte, error) {
			t.Fatal("resident or disk-backed blob recomputed")
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ka, kb, kc := s.Key("a"), s.Key("b"), s.Key("c")
	put(ka)
	put(kb)
	// Touch a so b is the least recently used.
	hit(ka)
	put(kc) // 120 bytes resident -> evict b
	if st := s.Stats(); st.Evicted != 1 {
		t.Fatalf("stats %+v, want exactly 1 eviction", st)
	}
	before := s.Stats()
	hit(ka)
	hit(kc)
	if st := s.Stats(); st.MemHits != before.MemHits+2 {
		t.Errorf("stats %+v, want a and c still resident", st)
	}
	// b fell out of memory but survives on disk: a hit, not a miss.
	before = s.Stats()
	hit(kb)
	if st := s.Stats(); st.DiskHits != before.DiskHits+1 {
		t.Errorf("stats %+v, want the reload counted as a disk hit", st)
	}
}

// TestMemCapCoversEveryKind: the memory bound charges results by their
// encoded size just like binary entries, so a binary entry can evict a
// result (a memory-only store then recomputes it).
func TestMemCapCoversEveryKind(t *testing.T) {
	s := New(Options{})
	r := sampleResult("capped")
	enc, err := Results.Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	s.st.cap = int64(len(enc))
	sims := 0
	sim := func() (*avf.Result, error) { sims++; return r, nil }
	rkey := s.Key("result")
	if _, err := Do(s, rkey, Results, sim); err != nil {
		t.Fatal(err)
	}
	if s.st.bytes != int64(len(enc)) {
		t.Fatalf("resident bytes %d, want the result's encoded size %d", s.st.bytes, len(enc))
	}
	if _, err := Do(s, s.Key("blob"), bytesCodec, func() ([]byte, error) { return []byte{1}, nil }); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evicted != 1 {
		t.Fatalf("stats %+v, want the result evicted", st)
	}
	if _, err := Do(s, rkey, Results, sim); err != nil || sims != 2 {
		t.Fatalf("evicted result: sims=%d err=%v, want a recomputation", sims, err)
	}
}

// TestBlobStatsPerViewAttribution pins the per-handle blob attribution
// contract: two views of one store see only their own blob traffic in
// LocalStats, while store-wide Stats aggregates both, and result
// traffic never counts as blob traffic.
func TestBlobStatsPerViewAttribution(t *testing.T) {
	s := New(Options{})
	busy, idle := s.View(), s.View()

	bkey := s.Key("attr-blob")
	for range 2 { // a computation, then a memory hit
		if _, err := Do(busy, bkey, bytesCodec, func() ([]byte, error) { return []byte("v"), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Do(busy, s.Key("attr-result"), Results, func() (*avf.Result, error) { return sampleResult("r"), nil }); err != nil {
		t.Fatal(err)
	}

	bs := busy.LocalStats()
	if bs.BlobHits != 1 || bs.BlobMisses != 1 || bs.Simulated != 2 {
		t.Errorf("busy view blob attribution = %d/%d, want 1/1 of 2 sims (stats %+v)", bs.BlobHits, bs.BlobMisses, bs)
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
	if _, err := Do(idle, bkey, bytesCodec, func() ([]byte, error) {
		t.Fatal("second view missed the shared blob")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if is := idle.LocalStats(); is.BlobHits != 1 || is.MemHits != 1 {
		t.Errorf("second view stats = %+v, want its own mem+blob hit", is)
	}
	if bs2 := busy.LocalStats(); bs2.BlobHits != bs.BlobHits {
		t.Errorf("first view's counters moved (%d -> %d) on the second view's traffic", bs.BlobHits, bs2.BlobHits)
	}
}

// TestStatsStringKeepsAnchoredPrefix pins the CLI stats line: scripts
// grep the first four fields, so the other fields must append, never
// reshape.
func TestStatsStringKeepsAnchoredPrefix(t *testing.T) {
	st := Stats{MemHits: 1, DiskHits: 2, Simulated: 3, Deduped: 4,
		Evicted: 6, Quarantined: 7,
		BlobHits: 8, BlobMisses: 9}
	want := "mem=1 disk=2 sim=3 dedup=4 evict=6 quar=7 blob=8/9"
	if got := st.String(); got != want {
		t.Errorf("Stats.String() = %q, want %q", got, want)
	}
}

// fillDistinct sets every field of a struct (recursively, including
// arrays) to a distinct non-zero value, so a lossy encode/decode cannot
// hide behind zero values or duplicates. It fails the test on any field
// JSON cannot carry (unexported) or any kind it does not know how to
// fill — forcing this test to be extended whenever avf.Result grows a
// new field shape.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		tp := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if tp.Field(i).PkgPath != "" {
				t.Fatalf("%s.%s is unexported: the disk tier cannot round-trip it",
					tp.Name(), tp.Field(i).Name)
			}
			fillDistinct(t, v.Field(i), n)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n)
		}
	case reflect.Float64:
		*n++
		// A value with a long shortest-representation exercises exact
		// float round-tripping.
		v.SetFloat(float64(*n) / 3)
	case reflect.Int64, reflect.Int:
		*n++
		v.SetInt(int64(*n))
	case reflect.String:
		*n++
		v.SetString(reflect.TypeOf(v.Interface()).Name() + string(rune('a'+*n%26)))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("fillDistinct: unhandled kind %v — extend the test", v.Kind())
	}
}

// TestResultRoundTripIsLossless is the differential test backing the
// disk tier: every field of avf.Result — present and future — must
// survive the Results codec bit-exactly, or warm-from-disk runs would
// stop being byte-identical to fresh simulations.
func TestResultRoundTripIsLossless(t *testing.T) {
	in := &avf.Result{}
	n := 0
	fillDistinct(t, reflect.ValueOf(in).Elem(), &n)
	b1, err := Results.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Results.Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip lost data:\nin  %+v\nout %+v", in, out)
	}
	// And a second hop must be byte-stable (encode(decode(x)) == encode(x)).
	b2, err := Results.Encode(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("re-encoding a decoded result changed the bytes")
	}
}
