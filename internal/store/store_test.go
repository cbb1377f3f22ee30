package store

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/sweep"
)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cellKey is the key of cell i of one model curve: a Scenario.Key, as
// every key a store keeps is.
func cellKey(i int) string {
	sc := eval.Scenario{Topology: eval.Topology{Family: eval.FamilyBFT, Size: 64}, MsgFlits: 16, Load: eval.Load{Frac: true, Value: float64(i+1) / 1024}}
	return sc.Key()
}

// record is a segment line holding p under key, as appendRecord writes it.
func record(key string, p eval.Point) string { return string(appendRecord(nil, key, p)) }

func pt(load, model, sim float64) eval.Point {
	p := eval.NewPoint()
	p.LoadFlits, p.Model, p.Sim = load, model, sim
	return p
}

func TestStoreRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	sat := eval.NewPoint()
	sat.LoadFlits, sat.Model, sat.ModelSaturated = 1.5, math.Inf(1), true
	cells := map[string]eval.Point{
		cellKey(1): pt(0.01, 42.5, math.NaN()),
		cellKey(2): pt(0.02, 50.25, 51.125),
		cellKey(3): sat,
	}
	for k, p := range cells {
		s.Put(k, p)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir)
	defer re.Close()
	if re.Recovered() != 3 || re.Dropped() != 0 {
		t.Fatalf("recovered %d (dropped %d), want 3/0", re.Recovered(), re.Dropped())
	}
	for k, want := range cells {
		got, ok := re.Get(k)
		if !ok {
			t.Fatalf("key %s lost across reopen", k)
		}
		if !eval.Same(got, want) {
			t.Errorf("key %s changed across reopen:\n  in  %+v\n  out %+v", k, want, got)
		}
	}
	if _, ok := re.Get(cellKey(4)); ok {
		t.Error("phantom cell")
	}
	if hits, misses := re.Stats(); hits != 3 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 3/1", hits, misses)
	}
}

func TestStoreLastWriteWinsAndCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k, j := cellKey(1), cellKey(2)
	s.Put(k, pt(0.01, 1, math.NaN()))
	s.Put(k, pt(0.01, 2, math.NaN())) // supersedes
	s.Put(j, pt(0.02, 3, math.NaN()))
	s.Put(j, pt(0.02, 3, math.NaN())) // identical: no extra record
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir)
	if got, _ := re.Get(k); got.Model != 2 {
		t.Errorf("last write did not win: %+v", got)
	}
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	if len(segs) != 1 {
		t.Fatalf("compaction left %d segments: %v", len(segs), segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Errorf("compacted segment has %d records, want 2:\n%s", n, data)
	}
	// The store stays usable after compaction.
	re.Put(cellKey(3), pt(0.03, 4, math.NaN()))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := mustOpen(t, dir)
	defer re2.Close()
	if re2.Recovered() != 3 {
		t.Errorf("post-compaction reopen recovered %d, want 3", re2.Recovered())
	}
}

// TestRePutAppendsWhateverFieldChanged: a second Put under the same key
// is skipped only when the point is the same in every field (eval.Same).
// Each field of eval.Point — found by reflection, so the next one added
// is covered without touching this test — is perturbed in turn; a
// sweep.Cache must report the change, and a Store must serve it from
// Get, land it as a second record and keep it across a reopen.
func TestRePutAppendsWhateverFieldChanged(t *testing.T) {
	base := eval.Point{LoadFlits: 0.02, Model: 40, Sim: 41, SimCI: 0.5, SimPrecision: 0.0125, BoundMax: 100}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		changed := base
		switch f := reflect.ValueOf(&changed).Elem().Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() * 2.5)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("eval.Point.%s is a %s: teach this test (and eval.Same) to compare it", name, f.Kind())
		}
		key := cellKey(0)
		c := sweep.NewCache()
		if !c.Put(key, base) || c.Put(key, base) || !c.Put(key, changed) {
			t.Errorf("%s: a cache's Put under %q did not report exactly the new cell and the change", name, key)
		}
		dir := t.TempDir()
		s := mustOpen(t, dir)
		s.Put(key, base)
		s.Put(key, base) // identical: skipped
		s.Put(key, changed)
		if got, _ := s.Get(key); !eval.Same(got, changed) {
			t.Errorf("%s: Get after re-Put = %+v, want %+v", name, got, changed)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
		if len(segs) != 1 {
			t.Fatalf("%s: %d segments, want 1", name, len(segs))
		}
		data, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), "\n"); n != 2 {
			t.Errorf("%s: a re-Put that changes it left %d records on disk, want 2:\n%s", name, n, data)
		}
		re := mustOpen(t, dir)
		if got, _ := re.Get(key); !eval.Same(got, viaWire(t, changed)) {
			t.Errorf("%s: reopen recovered %+v, want %+v", name, got, viaWire(t, changed))
		}
		re.Close()
	}
}

func TestStoreDropsTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Put(cellKey(0), pt(0.01, 9, math.NaN()))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed writer: append half a record with no newline.
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := record(cellKey(1), pt(0.02, 9, math.NaN()))
	if _, err := f.WriteString(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := mustOpen(t, dir)
	defer re.Close()
	if re.Dropped() != 1 {
		t.Errorf("dropped %d lines, want 1", re.Dropped())
	}
	if re.Recovered() != 1 {
		t.Errorf("recovered %d cells, want 1", re.Recovered())
	}
	if _, ok := re.Get(cellKey(0)); !ok {
		t.Error("intact record lost to its torn neighbour")
	}
	if _, ok := re.Get(cellKey(1)); ok {
		t.Error("torn record resurrected")
	}
}

func TestStoreDropsCorruptMiddleLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000001.ndjson")
	content := record(cellKey(0), pt(0.01, 1, math.NaN())) +
		"this line is not JSON at all\n" +
		record(cellKey(1), pt(0.02, 2, math.NaN()))
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	if s.Recovered() != 2 || s.Dropped() != 1 {
		t.Fatalf("recovered %d dropped %d, want 2/1", s.Recovered(), s.Dropped())
	}
	if _, ok := s.Get(cellKey(1)); !ok {
		t.Error("record after the corrupt line lost")
	}
}

// TestStoreSurvivesHugeGarbageLine pins the recovery contract for
// corruption larger than any line buffer: records after a multi-MiB
// garbage run must still replay.
func TestStoreSurvivesHugeGarbageLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000001.ndjson")
	var b strings.Builder
	b.WriteString(record(cellKey(0), pt(0.01, 1, math.NaN())))
	b.WriteString(strings.Repeat("x", 2<<20) + "\n")
	b.WriteString(record(cellKey(1), pt(0.02, 2, math.NaN())))
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	if s.Recovered() != 2 || s.Dropped() != 1 {
		t.Fatalf("recovered %d dropped %d, want 2/1", s.Recovered(), s.Dropped())
	}
	if _, ok := s.Get(cellKey(1)); !ok {
		t.Error("record after the garbage run lost")
	}
}

func TestStoreSegmentsAccumulatePerSession(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		s := mustOpen(t, dir)
		s.Put(cellKey(0), pt(0.01, 1, math.NaN()))
		s.Put(cellKey(1+i), pt(0.02, float64(i), math.NaN()))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPattern))
	// Session 1 writes cells 0 and 1; later sessions re-Put an identical
	// cell 0 (skipped) plus one new cell each.
	if len(segs) != 3 {
		t.Fatalf("want 3 segments, got %v", segs)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	if s.Recovered() != 4 {
		t.Errorf("recovered %d cells, want 4", s.Recovered())
	}
}

func TestStoreConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := cellKey(10*w + i%10)
				s.Put(key, pt(float64(i), float64(w), math.NaN()))
				s.Get(key)
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir)
	defer re.Close()
	if re.Recovered() != 80 || re.Dropped() != 0 {
		t.Errorf("recovered %d dropped %d, want 80/0", re.Recovered(), re.Dropped())
	}
}

// TestRunnerServesFullGridFromStoreAfterRestart pins the cross-restart
// contract: a second Runner opened on the same directory serves the full
// grid from store hits and computes no cell.
func TestRunnerServesFullGridFromStoreAfterRestart(t *testing.T) {
	dir := t.TempDir()
	spec := sweep.Spec{
		Name:       "persist",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64}}},
		MsgFlits:   []int{4, 8},
		Loads:      sweep.LoadSpec{Points: 3, MaxFrac: 0.9},
	}

	first := mustOpen(t, dir)
	r1 := sweep.NewRunner(sweep.WithCache(first))
	res1, err := r1.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if hits, fresh := r1.Counts(); fresh != int64(len(res1.Rows)) || hits != 0 {
		t.Fatalf("first run: %d fresh, %d hits over %d rows", fresh, hits, len(res1.Rows))
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh store on the same directory and a fresh runner.
	// Everything must come from disk.
	second := mustOpen(t, dir)
	defer second.Close()
	r2 := sweep.NewRunner(sweep.WithCache(second))
	res2, err := r2.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if hits, fresh := r2.Counts(); fresh != 0 || hits != int64(len(res2.Rows)) {
		t.Errorf("restarted runner computed %d cell(s) and hit %d of %d; want all from store", fresh, hits, len(res2.Rows))
	}
	if res2.CacheHits != len(res2.Rows) || res2.CacheMisses != 0 {
		t.Errorf("restarted run: hits=%d misses=%d over %d rows",
			res2.CacheHits, res2.CacheMisses, len(res2.Rows))
	}
	for i := range res1.Rows {
		if !eval.Same(res1.Rows[i].Cell, res2.Rows[i].Cell) {
			t.Errorf("row %d drifted across restart:\n  %+v\n  %+v",
				i, res1.Rows[i].Cell, res2.Rows[i].Cell)
		}
	}
}

// TestPruneStaysWithinBoundsAndServesSurvivors pins the GC contract: a
// pruned store's segments fit the byte bound, the oldest records are the
// ones evicted, and every surviving key keeps serving — across a reopen
// too.
func TestPruneStaysWithinBoundsAndServesSurvivors(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	const n = 50
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = cellKey(i)
		s.Put(keys[i], pt(float64(i)/100, float64(i), math.NaN()))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir)
	before, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	bound := before / 2
	evicted, err := s.Prune(bound)
	if err != nil {
		t.Fatal(err)
	}
	if evicted == 0 {
		t.Fatalf("halving the bound evicted nothing (disk %d, bound %d)", before, bound)
	}
	after, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after > bound {
		t.Fatalf("pruned store still over bound: %d > %d", after, bound)
	}

	// The oldest records went first: survivors are exactly a suffix.
	for i, key := range keys {
		got, ok := s.Get(key)
		wantLive := i >= evicted
		if ok != wantLive {
			t.Errorf("key %s: live=%v, want %v (evicted %d oldest)", key, ok, wantLive, evicted)
			continue
		}
		if ok && got.Model != float64(i) {
			t.Errorf("key %s came back wrong: %+v", key, got)
		}
	}

	// Survivors persist across a reopen; evicted keys stay gone.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	if s.Len() != n-evicted {
		t.Errorf("reopened store has %d cells, want %d", s.Len(), n-evicted)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Error("evicted key resurrected on reopen")
	}
	if got, ok := s.Get(keys[n-1]); !ok || got.Model != float64(n-1) {
		t.Errorf("newest key lost: %v %v", got, ok)
	}
}

// TestPruneCompactsDuplicatesFirst: superseded records are reclaimed
// before any live cell is evicted — a store whose live set fits needs no
// eviction even when its segments are bloated with rewrites.
func TestPruneCompactsDuplicatesFirst(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	// Rewrite the same 5 keys many times with distinct points so every
	// Put appends.
	for round := 0; round < 40; round++ {
		for i := 0; i < 5; i++ {
			s.Put(cellKey(i), pt(0.01, float64(round*10+i), math.NaN()))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	before, _ := s.DiskBytes()
	evicted, err := s.Prune(before / 4)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 0 {
		t.Errorf("compaction alone should fit the bound, but %d cell(s) were evicted", evicted)
	}
	for i := 0; i < 5; i++ {
		got, ok := s.Get(cellKey(i))
		if !ok || got.Model != float64(390+i) {
			t.Errorf("cell %d: want the newest rewrite, got %v %v", i, got, ok)
		}
	}
}

// TestPruneNoopUnderBound: a store already within bounds is untouched.
func TestPruneNoopUnderBound(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.Put(cellKey(0), pt(0.01, 1, math.NaN()))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	evicted, err := s.Prune(1 << 30)
	if err != nil || evicted != 0 {
		t.Fatalf("prune under bound: evicted=%d err=%v", evicted, err)
	}
	if _, err := s.Prune(0); err == nil {
		t.Error("non-positive bound accepted")
	}
	if _, ok := s.Get(cellKey(0)); !ok {
		t.Error("cell lost by a no-op prune")
	}
}

// TestAutoPruneKeepsLongRunningStoreUnderBound pins the background GC:
// a store that keeps absorbing cells while an auto-prune loop runs —
// the long-running sweepd server shape — settles under its byte bound
// instead of growing without limit, and keeps serving the surviving
// (newest) cells.
func TestAutoPruneKeepsLongRunningStoreUnderBound(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()

	const bound = 4096
	stop := s.StartAutoPrune(bound, 2*time.Millisecond, func(err error) { t.Errorf("auto-prune: %v", err) })

	// Write far more than the bound while the loop runs, in bursts so
	// several prune ticks interleave with live Puts.
	const n = 400
	for i := 0; i < n; i++ {
		s.Put(cellKey(i), pt(float64(i)/1000, float64(i), math.NaN()))
		if i%50 == 49 {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// With writes quiesced, the next tick must bring the store under the
	// bound and hold it there.
	deadline := time.Now().Add(5 * time.Second)
	var size int64
	for {
		var err error
		size, err = s.DiskBytes()
		if err != nil {
			t.Fatal(err)
		}
		if size <= bound || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	if size > bound {
		t.Fatalf("long-running store settled at %d bytes, bound %d", size, bound)
	}

	// The newest cell survived the evictions and the store still serves.
	if got, ok := s.Get(cellKey(n - 1)); !ok || got.Model != float64(n-1) {
		t.Errorf("newest cell lost under auto-prune: %v %v", got, ok)
	}
	if s.Len() == 0 {
		t.Error("auto-prune evicted everything")
	}

	// After stop, the loop is gone: grow the store past the bound and
	// verify nothing shrinks it behind our back.
	for i := 0; i < 100; i++ {
		s.Put(cellKey(n+i), pt(0.5, float64(i), math.NaN()))
	}
	time.Sleep(20 * time.Millisecond)
	after, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after <= bound {
		t.Errorf("store shrank after stop (size %d): auto-prune still running?", after)
	}
}
