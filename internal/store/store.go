// Package store persists sweep results across process restarts: a
// content-addressed result store holding one eval.Point per cache key
// (Scenario.Key), implementing the sweep engine's CacheStore contract so a
// Runner opened with WithCache(store) transparently serves cells computed
// by earlier processes (or other machines sharing the directory).
//
// # Layout
//
// A store is a directory of append-only NDJSON segment files,
// seg-000001.ndjson, seg-000002.ndjson, …; each line is one record
// {"key":"<cache key>","point":<eval.Point wire JSON>}, written
// without whitespace around eval.AppendPoint and read back by scanning
// that exact form around eval.ParsePoint — the codec emits what
// encoding/json would (pinned by FuzzPointCodec), so segments are
// byte-identical to those of earlier versions, and a line in any other
// JSON spelling still replays through encoding/json. Every
// process appends to a fresh segment (existing segments are never
// rewritten), so the format needs no locking beyond "one writer per
// segment"; the in-memory index is rebuilt at Open by replaying every
// segment in name order, later records winning. Results are
// content-addressed — the key spells out every result-affecting input of
// a scenario — so replaying is insensitive to which process, shard or
// sweep produced a record.
//
// # Durability and recovery
//
// Puts are appended with a single write syscall each (no fsync: an OS
// crash may cost the tail, never correctness). Recovery is
// corruption-tolerant: a line that does not parse — the truncated tail of
// a crashed writer, a torn write — or that lacks a key or a point object
// with its load_flits member (always written, even as null) is dropped
// and counted, not fatal; everything before and after it is kept.
// Compact folds all live cells into one fresh segment and deletes the
// rest.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
)

// segPattern matches segment files; the numeric component orders replay.
const segPattern = "seg-*.ndjson"

// appendRecord appends one record line, {"key":"…","point":{…}}\n, to
// dst: the bytes encoding/json emits for the same record. Only a key
// that needs escaping — none the repository builds — goes through it.
func appendRecord(dst []byte, key string, pt eval.Point) []byte {
	dst = append(dst, `{"key":`...)
	if plainLen(key) == len(key) {
		dst = append(append(append(dst, '"'), key...), '"')
	} else {
		quoted, _ := json.Marshal(key) // a string always marshals
		dst = append(dst, quoted...)
	}
	dst = eval.AppendPoint(append(dst, `,"point":`...), pt)
	return append(dst, "}\n"...)
}

// plainLen returns the length of s's longest prefix that a JSON string
// holds verbatim under encoding/json's default escaping: printable ASCII
// without the quote, the backslash and the HTML-sensitive <, > and &.
func plainLen[T string | []byte](s T) int {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return i
		}
	}
	return len(s)
}

// parseRecord decodes one record line into pt and returns its key; ok is
// false for a line replay must drop. A line in the form appendRecord
// writes (newline optional) is scanned in place; anything else is
// encoding/json's to judge, and must still carry a non-empty key and a
// point object with its load_flits member.
func parseRecord(line []byte, pt *eval.Point) (key string, ok bool) {
	if k, ok := scanRecord(line, pt); ok {
		return string(k), len(k) > 0
	}
	return decodeRecord(line, pt)
}

// scanRecord is the scan path of parseRecord: the canonical form only.
// key aliases line.
func scanRecord(line []byte, pt *eval.Point) (key []byte, ok bool) {
	b, ok := bytes.CutPrefix(line, []byte(`{"key":"`))
	if !ok {
		return nil, false
	}
	n := plainLen(b)
	key = b[:n]
	if b, ok = bytes.CutPrefix(b[n:], []byte(`","point":`)); !ok {
		return nil, false
	}
	if b, ok = eval.ParsePoint(b, pt); !ok {
		return nil, false
	}
	return key, string(b) == "}\n" || string(b) == "}"
}

// decodeRecord is the encoding/json path of parseRecord.
func decodeRecord(line []byte, pt *eval.Point) (key string, ok bool) {
	var rec struct {
		Key   string          `json:"key"`
		Point json.RawMessage `json:"point"`
	}
	if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
		return "", false
	}
	return rec.Key, eval.DecodePoint(rec.Point, pt) == nil
}

// Store is a persistent result cache. It implements sweep.CacheStore
// (Get/Put) and is safe for concurrent use by one process; concurrent
// processes may share a directory as long as each uses its own Store
// (each writes a distinct segment).
type Store struct {
	mu           sync.Mutex
	dir          string
	index        map[string]eval.Point
	seg          *os.File // active segment, opened lazily on first Put
	segName      string
	nextSeg      int // numeric suffix the active segment will take
	buf          []byte
	writeErr     error
	hits, misses int64
	appended     int64
	dropped      int
	recovered    int
	prunedBytes  int64
}

// Open opens (creating if needed) the store directory and replays its
// segments into memory. Unparseable lines — truncated tails of crashed
// writers — are dropped, not fatal; Dropped reports how many.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]eval.Point), nextSeg: 1}
	segs, err := filepath.Glob(filepath.Join(dir, segPattern))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(segs)
	for _, path := range segs {
		if err := s.replay(path); err != nil {
			return nil, err
		}
		var n int
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.ndjson", &n); err == nil && n >= s.nextSeg {
			s.nextSeg = n + 1
		}
	}
	s.recovered = len(s.index)
	return s, nil
}

// replay loads one segment into the index, dropping corrupt lines.
func (s *Store) replay(path string) error {
	dropped, err := eachRecord(path, func(key string, pt eval.Point, _ []byte) {
		s.index[key] = pt
	})
	s.dropped += dropped
	return err
}

// eachRecord calls fn for every valid record of the segment at path, in
// file order, with the record's line (valid during the call only), and
// returns how many lines it dropped as corrupt — arbitrarily long garbage
// runs included, which must not abandon the valid records after them.
// Only a real read error is an error.
func eachRecord(path string, fn func(key string, pt eval.Point, line []byte)) (dropped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64*1024)
	var long []byte // a line longer than r's buffer, assembled
	for {
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = r.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if len(line) > 0 {
			var pt eval.Point
			if key, ok := parseRecord(line, &pt); ok {
				fn(key, pt, line)
			} else {
				dropped++
			}
		}
		if err == io.EOF {
			return dropped, nil
		}
		if err != nil {
			return dropped, fmt.Errorf("store: reading %s: %w", path, err)
		}
	}
}

// Get returns the cell stored under key, counting a hit or miss.
func (s *Store) Get(key string) (eval.Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pt, ok := s.index[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return pt, ok
}

// Put stores a cell under key and appends it to the active segment. A
// key already holding the identical point is not re-appended (reopening
// a store under a warm runner must not grow segments). Write failures
// are remembered and surfaced by Close/Flush — Put itself never fails,
// matching the CacheStore contract; the in-memory cell stays valid
// either way.
func (s *Store) Put(key string, pt eval.Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.index[key]; ok && samePoint(old, pt) {
		return
	}
	s.index[key] = pt
	s.append(key, pt)
}

// append writes one record line to the active segment — one write
// syscall — opening it first if needed. Caller holds mu.
func (s *Store) append(key string, pt eval.Point) {
	if s.writeErr != nil {
		return
	}
	if s.seg == nil {
		if err := s.openSegment(); err != nil {
			s.writeErr = err
			return
		}
	}
	s.buf = appendRecord(s.buf[:0], key, pt)
	if _, err := s.seg.Write(s.buf); err != nil {
		s.writeErr = fmt.Errorf("store: appending to %s: %w", s.segName, err)
		return
	}
	s.appended++
}

// openSegment creates the next segment file. Caller holds mu.
func (s *Store) openSegment() error {
	for {
		name := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.ndjson", s.nextSeg))
		s.nextSeg++
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue // another store on this dir claimed the number
		}
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.seg, s.segName = f, name
		return nil
	}
}

// Len returns the number of live cells.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Range calls fn for every live cell until fn returns false. It
// snapshots the index under the lock and iterates the snapshot with the
// lock released, so fn may itself call Store methods (Get, Put, even
// Prune) without deadlocking, and concurrent writers are never blocked
// behind a slow consumer. The snapshot is consistent at the instant it
// was taken: cells put or pruned while fn runs may or may not be seen.
// Iteration order is unspecified.
func (s *Store) Range(fn func(key string, pt eval.Point) bool) {
	type cell struct {
		key string
		pt  eval.Point
	}
	s.mu.Lock()
	snap := make([]cell, 0, len(s.index))
	for k, p := range s.index {
		snap = append(snap, cell{k, p})
	}
	s.mu.Unlock()
	for _, c := range snap {
		if !fn(c.key, c.pt) {
			return
		}
	}
}

// Stats returns the lifetime hit and miss counts of this Store instance.
func (s *Store) Stats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Recovered returns how many cells Open replayed from disk.
func (s *Store) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Collect implements obs.Collector with this instance's numbers: the
// series every result cache exports (hits, misses, live cells) and the
// store's own disk, recovery and prune accounting.
func (s *Store) Collect(emit func(obs.Sample)) {
	s.mu.Lock()
	hits, misses, cells := s.hits, s.misses, len(s.index)
	recovered, dropped, pruned := s.recovered, s.dropped, s.prunedBytes
	s.mu.Unlock()
	emit(obs.Sample{Name: "sweep_cache_hits_total", Kind: obs.KindCounter, Value: float64(hits)})
	emit(obs.Sample{Name: "sweep_cache_misses_total", Kind: obs.KindCounter, Value: float64(misses)})
	emit(obs.Sample{Name: "sweep_cache_cells", Kind: obs.KindGauge, Value: float64(cells)})
	if n, err := s.DiskBytes(); err == nil {
		emit(obs.Sample{Name: "sweep_store_disk_bytes", Kind: obs.KindGauge, Value: float64(n)})
	}
	emit(obs.Sample{Name: "sweep_store_recovered_cells", Kind: obs.KindGauge, Value: float64(recovered)})
	emit(obs.Sample{Name: "sweep_store_dropped_lines", Kind: obs.KindGauge, Value: float64(dropped)})
	emit(obs.Sample{Name: "store_pruned_bytes_total", Kind: obs.KindCounter, Value: float64(pruned)})
}

// Dropped returns how many corrupt or truncated lines recovery skipped.
func (s *Store) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Compact folds every live cell into one fresh segment and removes all
// older segments, reclaiming the space of superseded and duplicate
// records. The store remains usable afterwards; subsequent Puts open a
// new segment.
//
// Compact requires exclusive ownership of the directory: unlike
// appending (where concurrent Store sessions are safe, each on its own
// segment), compaction deletes every other segment — a concurrent
// writer's active segment included, silently discarding its future
// appends. Run it as offline maintenance (`sweepd -compact`) with no
// daemon on the directory.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.closeSegment(); err != nil {
		return err
	}
	old, err := filepath.Glob(filepath.Join(s.dir, segPattern))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return s.replaceSegments(old, "compacting", func(w *bufio.Writer) {
		for _, k := range keys {
			s.buf = appendRecord(s.buf[:0], k, s.index[k])
			w.Write(s.buf)
		}
	})
}

// replaceSegments is the tail Compact and Prune share: write fills one
// fresh segment, and once it is durable every segment in old is removed.
// The data goes straight to the next segment number (O_EXCL, so a number
// claimed by someone else is never clobbered), and old segments are
// deleted only after a successful flush+sync+close; a crash in between
// leaves a truncated or duplicate segment, both of which replay resolves
// (corrupt tails drop, later records win). write may ignore the errors of
// w: a bufio.Writer keeps its first one and Flush returns it. Caller
// holds mu, with no segment open.
func (s *Store) replaceSegments(old []string, doing string, write func(w *bufio.Writer)) error {
	if err := s.openSegment(); err != nil {
		return err
	}
	name := s.segName
	w := bufio.NewWriter(s.seg)
	write(w)
	err := w.Flush()
	if err == nil {
		err = s.seg.Sync()
	}
	if err != nil {
		s.closeSegment()
		return fmt.Errorf("store: %s: %w", doing, err)
	}
	if err := s.closeSegment(); err != nil {
		return err
	}
	for _, path := range old {
		if path == name {
			continue
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: removing %s: %w", path, err)
		}
	}
	return nil
}

// Prune bounds the store's on-disk footprint at maxBytes, evicting the
// oldest records first. It reads every segment in replay order (each
// key's size charged at its newest record — pruning always compacts
// superseded duplicates away), then, while still over the bound, drops
// live records oldest-write-first; survivors are folded into one fresh
// segment and every older segment is removed. Evicted keys disappear
// from the in-memory index too, so a pruned store keeps serving exactly
// its surviving cells and recomputed ones are simply re-appended.
//
// Prune returns how many live cells were evicted (0 when the store
// already fit, in which case the segments are left untouched). Like
// Compact, it requires exclusive ownership of the directory across
// processes: run it at startup (`sweepd -cache-max-bytes`), as offline
// maintenance, or periodically from the owning process itself
// (StartAutoPrune, `sweepd -prune-interval`) — never while another
// process writes the directory. Within one process it is safe alongside
// concurrent Get/Put: everything runs under the store's mutex.
func (s *Store) Prune(maxBytes int64) (evicted int, err error) {
	if maxBytes <= 0 {
		return 0, fmt.Errorf("store: prune bound must be positive, got %d", maxBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.closeSegment(); err != nil {
		return 0, err
	}
	segs, err := filepath.Glob(filepath.Join(s.dir, segPattern))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	sort.Strings(segs)
	var total int64
	for _, path := range segs {
		fi, err := os.Stat(path)
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		total += fi.Size()
	}
	if total <= maxBytes {
		return 0, nil
	}

	// Gather the newest record line of every live key, in write order
	// (replay order; a rewritten key moves to its newest position).
	type entry struct {
		key  string
		line []byte
	}
	var entries []entry
	latest := make(map[string]int)
	var liveBytes int64
	for _, path := range segs {
		_, err := eachRecord(path, func(key string, _ eval.Point, line []byte) {
			line = append(make([]byte, 0, len(line)+1), line...)
			if line[len(line)-1] != '\n' {
				line = append(line, '\n')
			}
			if i, dup := latest[key]; dup {
				liveBytes -= int64(len(entries[i].line))
				entries[i].line = nil
			}
			latest[key] = len(entries)
			entries = append(entries, entry{key: key, line: line})
			liveBytes += int64(len(line))
		})
		if err != nil {
			return 0, err
		}
	}

	// Evict oldest-first until the live set fits.
	for i := 0; liveBytes > maxBytes && i < len(entries); i++ {
		if entries[i].line == nil {
			continue
		}
		n := int64(len(entries[i].line))
		liveBytes -= n
		s.prunedBytes += n
		delete(s.index, entries[i].key)
		entries[i].line = nil
		evicted++
	}

	// Fold the survivors into one fresh segment, their raw lines in write
	// order, then drop every older one.
	return evicted, s.replaceSegments(segs, "pruning", func(w *bufio.Writer) {
		for _, e := range entries {
			w.Write(e.line) // nil for an evicted or superseded record
		}
	})
}

// DiskBytes reports the total size of the store's segment files.
func (s *Store) DiskBytes() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := filepath.Glob(filepath.Join(s.dir, segPattern))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	var total int64
	for _, path := range segs {
		fi, err := os.Stat(path)
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		total += fi.Size()
	}
	return total, nil
}

// StartAutoPrune launches a background goroutine that keeps the store's
// on-disk footprint bounded: every interval it checks DiskBytes and,
// only when over maxBytes, runs Prune — so a long-running server
// (`sweepd -prune-interval`) stays under its bound for its whole
// lifetime instead of only at startup, and an idle store never has its
// segments churned. Concurrent Get/Put are safe (they serialize with
// the prune on the store's mutex; a Put blocks for the prune's duration
// at worst) but the directory must still belong to this process alone.
// Prune failures are reported through onError when non-nil (the loop
// keeps running; a transient stat failure must not stop GC for good).
// The returned stop function halts the loop and waits for any in-flight
// prune to finish; it is idempotent.
func (s *Store) StartAutoPrune(maxBytes int64, interval time.Duration, onError func(error)) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				size, err := s.DiskBytes()
				if err == nil && size <= maxBytes {
					continue
				}
				if err == nil {
					_, err = s.Prune(maxBytes)
				}
				if err != nil && onError != nil {
					onError(err)
				}
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}

// closeSegment closes the active segment if open. Caller holds mu.
func (s *Store) closeSegment() error {
	if s.seg == nil {
		return s.writeErr
	}
	err := s.seg.Close()
	s.seg, s.segName = nil, ""
	if s.writeErr != nil {
		return s.writeErr
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Flush surfaces any deferred write error without closing the store.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writeErr != nil {
		return s.writeErr
	}
	if s.seg != nil {
		if err := s.seg.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// Close closes the active segment and surfaces any deferred write
// error. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeSegment()
}

// samePoint compares two points field by field (NaN equal to NaN), so
// re-Put of an identical cell can skip the disk append — and of a cell
// that differs anywhere cannot. TestRePutAppendsWhateverFieldChanged
// walks eval.Point by reflection, so a new field cannot be missed here.
func samePoint(a, b eval.Point) bool {
	return floatSame(a.LoadFlits, b.LoadFlits) && floatSame(a.Model, b.Model) &&
		floatSame(a.Sim, b.Sim) && floatSame(a.SimCI, b.SimCI) &&
		floatSame(a.SimPrecision, b.SimPrecision) && floatSame(a.BoundMax, b.BoundMax) &&
		a.ModelSaturated == b.ModelSaturated && a.ModelNA == b.ModelNA && a.SimSaturated == b.SimSaturated &&
		a.BoundUnbounded == b.BoundUnbounded && a.BoundNA == b.BoundNA
}

func floatSame(a, b float64) bool {
	return a == b || (a != a && b != b)
}
