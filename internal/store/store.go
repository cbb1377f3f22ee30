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
// JSON spelling still replays through encoding/json. Every process
// appends to a fresh segment (existing segments are never rewritten), so
// the format needs no locking beyond "one writer per segment". The live
// cells are one sweep.Cache, rebuilt at Open by replaying every segment
// in name order, later records winning; the store itself keeps only the
// log. Results are content-addressed — the key spells out every
// result-affecting input of a scenario — so replaying is insensitive to
// which process, shard or sweep produced a record.
//
// # Durability and recovery
//
// A put — one cell, or the new cells of one curve — is appended with a
// single write syscall (no fsync: an OS crash may cost the tail, never
// correctness). Recovery is
// corruption-tolerant: a line that does not parse — the truncated tail of
// a crashed writer, a torn write — or that lacks a key or a point object
// with its load_flits member (always written, even as null) is dropped
// and counted, not fatal; everything before and after it is kept. So is a
// record whose key is not a cell's key (eval.SplitKey refuses it), such as
// a line an older version wrote behind a backend salt. Compact folds all
// live cells into one fresh segment and deletes the rest, dropped lines
// included.
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
	"repro/internal/sweep"
)

// segPattern matches segment files; the numeric component orders replay.
const segPattern = "seg-*.ndjson"

// appendRecord appends one record line, {"key":"…","point":{…}}\n, to
// dst: the bytes encoding/json emits for the same record. Only a key
// that needs escaping — none the repository builds — goes through it.
func appendRecord[K string | []byte](dst []byte, key K, pt eval.Point) []byte {
	dst = append(dst, `{"key":`...)
	if plainLen(key) == len(key) {
		dst = append(append(append(dst, '"'), key...), '"')
	} else {
		quoted, _ := json.Marshal(string(key)) // a string always marshals
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
// writes (newline optional) is scanned in place, its key a slice of line;
// anything else is encoding/json's to judge, and must still carry a
// non-empty key and a point object with its load_flits member.
func parseRecord(line []byte, pt *eval.Point) (key []byte, ok bool) {
	if k, ok := scanRecord(line, pt); ok {
		return k, len(k) > 0
	}
	k, ok := decodeRecord(line, pt)
	return []byte(k), ok
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

// Store is a persistent result cache: a sweep.Cache holding the live
// cells, and the segment log its changes are appended to and replayed
// from. It implements sweep.CacheStore and is safe for concurrent use by
// one process; processes may share a directory, each with its own Store
// (each writes a distinct segment).
type Store struct {
	// cells is not embedded: a change reaches it only with its record.
	cells *sweep.Cache
	// dir, dropped and recovered are set by Open.
	dir                string
	dropped, recovered int
	// mu orders the changes to cells with their records, and guards the
	// fields below.
	mu          sync.Mutex
	seg         *os.File // active segment, opened lazily on first Put
	segName     string
	nextSeg     int // numeric suffix the active segment will take
	buf         []byte
	writeErr    error
	prunedBytes int64
}

// Open opens (creating if needed) the store directory and replays its
// segments into memory. Unparseable lines — truncated tails of crashed
// writers — and records under a key that is not a cell's key are
// dropped, not fatal; Dropped reports how many.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{cells: sweep.NewCache(), dir: dir, nextSeg: 1}
	segs, _, err := s.segments()
	if err != nil {
		return nil, err
	}
	for _, path := range segs {
		if err := s.replay(path); err != nil {
			return nil, err
		}
		var n int
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.ndjson", &n); err == nil && n >= s.nextSeg {
			s.nextSeg = n + 1
		}
	}
	s.recovered = s.cells.Len()
	return s, nil
}

// replay loads one segment into the cache, dropping corrupt lines and
// records whose key is not a cell's key (one eval.SplitKey refuses, such
// as an older version's salted key); Compact removes them from disk.
// Each key is split where it lies in its line, and a put writes a curve's
// records together, so a run of records on one curve goes in with one
// PutCurve, its curve key copied once. A run ends at a curve change and
// at the end of the segment, so records land in file order and later ones
// still win.
func (s *Store) replay(path string) error {
	var buf []byte
	var curve string
	var tokens []eval.Token
	var cells []eval.Point
	flush := func() {
		s.cells.PutCurve(curve, tokens, cells)
		tokens, cells = tokens[:0], cells[:0]
	}
	dropped, err := eachRecord(path, func(key []byte, pt eval.Point, _ []byte) {
		c, t, ok := eval.SplitKey(buf[:0], key)
		if buf = c; !ok {
			s.dropped++
			return
		}
		if string(c) != curve {
			flush()
			curve = string(c)
		}
		tokens, cells = append(tokens, t), append(cells, pt)
	})
	flush()
	s.dropped += dropped
	return err
}

// eachRecord calls fn for every valid record of the segment at path, in
// file order, with the record's line (valid during the call only), and
// returns how many lines it dropped as corrupt — arbitrarily long garbage
// runs included, which must not abandon the valid records after them.
// Only a real read error is an error.
func eachRecord(path string, fn func(key []byte, pt eval.Point, line []byte)) (dropped int, err error) {
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

// GetCurve implements sweep.CacheStore.
func (s *Store) GetCurve(curve string, tokens []eval.Token, cells []eval.Point, found []bool) int {
	return s.cells.GetCurve(curve, tokens, cells, found)
}

// PutCurve implements sweep.CacheStore: the curve's cells go into the
// cache, and the records of those that changed reach the active segment
// in one write.
func (s *Store) PutCurve(curve string, tokens []eval.Token, cells []eval.Point) {
	var flags [64]bool // a curve of more cells spills to the heap
	changed := append(flags[:0], make([]bool, len(tokens))...)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.cells.PutCurveChanged(curve, tokens, cells, changed)
	var key [256]byte
	s.buf = s.buf[:0]
	for i, ok := range changed {
		if ok {
			s.buf = appendRecord(s.buf, eval.AppendJoinKey(key[:0], curve, tokens[i]), cells[i])
		}
	}
	s.write(n)
}

// Get returns the cell stored under a full key (Scenario.Key), counting a
// hit or miss.
func (s *Store) Get(key string) (eval.Point, bool) { return s.cells.Get(key) }

// Put stores a cell under a full key and appends its record to the
// active segment, unless the key holds the same point (eval.Same) already:
// a warm runner on a reopened store must not grow it. Put never fails, as
// the CacheStore contract has it; a write error waits for Close or Flush.
func (s *Store) Put(key string, pt eval.Point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cells.Put(key, pt) {
		s.buf = appendRecord(s.buf[:0], key, pt)
		s.write(1)
	}
}

// write appends buf's n record lines to the active segment — one write
// syscall — opening it first if needed. Caller holds mu.
func (s *Store) write(n int) {
	if n == 0 || s.writeErr != nil {
		return
	}
	if s.seg == nil {
		if err := s.openSegment(); err != nil {
			s.writeErr = err
			return
		}
	}
	if _, err := s.seg.Write(s.buf); err != nil {
		s.writeErr = fmt.Errorf("store: appending to %s: %w", s.segName, err)
	}
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
func (s *Store) Len() int { return s.cells.Len() }

// Range calls fn for every live cell until fn returns false, as
// sweep.Cache.Range does: fn runs on a snapshot with no lock held, so it
// may call Store methods itself. Iteration order is unspecified.
func (s *Store) Range(fn func(key string, pt eval.Point) bool) { s.cells.Range(fn) }

// Stats returns the lifetime hit and miss counts of this Store instance.
func (s *Store) Stats() (hits, misses int64) { return s.cells.Stats() }

// Recovered returns how many cells Open replayed from disk.
func (s *Store) Recovered() int { return s.recovered }

// Collect implements obs.Collector with this instance's numbers: its
// cache's series (hits, misses, live cells), then the store's own disk,
// recovery and prune accounting.
func (s *Store) Collect(emit func(obs.Sample)) {
	s.cells.Collect(emit)
	s.mu.Lock()
	pruned := s.prunedBytes
	s.mu.Unlock()
	if n, err := s.DiskBytes(); err == nil {
		emit(obs.Sample{Name: "sweep_store_disk_bytes", Kind: obs.KindGauge, Value: float64(n)})
	}
	emit(obs.Sample{Name: "sweep_store_recovered_cells", Kind: obs.KindGauge, Value: float64(s.recovered)})
	emit(obs.Sample{Name: "sweep_store_dropped_lines", Kind: obs.KindGauge, Value: float64(s.dropped)})
	emit(obs.Sample{Name: "store_pruned_bytes_total", Kind: obs.KindCounter, Value: float64(pruned)})
}

// Dropped returns how many lines recovery skipped: corrupt or truncated
// ones, and records under a key that is not a cell's key. The latter
// include an older version's salted records, good measurements once:
// they are neither served nor mined, and the next Compact or folding
// Prune removes them without counting them in store_pruned_bytes_total.
func (s *Store) Dropped() int { return s.dropped }

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
	old, _, err := s.segments()
	if err != nil {
		return err
	}
	type cell struct {
		key string
		pt  eval.Point
	}
	var live []cell
	s.cells.Range(func(key string, pt eval.Point) bool {
		live = append(live, cell{key, pt})
		return true
	})
	sort.Slice(live, func(i, j int) bool { return live[i].key < live[j].key })
	return s.replaceSegments(old, "compacting", func(w *bufio.Writer) {
		for _, c := range live {
			s.buf = appendRecord(s.buf[:0], c.key, c.pt)
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
// from the in-memory cells too, so a pruned store keeps serving exactly
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
	segs, total, err := s.segments()
	if err != nil {
		return 0, err
	}
	if total <= maxBytes {
		return 0, nil
	}

	// Gather the newest record line of every live key, in write order
	// (replay order; a rewritten key moves to its newest position). A
	// record replay drops, its key no cell's key, is left out.
	type entry struct {
		key  string
		line []byte
	}
	var entries []entry
	latest := make(map[string]int)
	var liveBytes int64
	var curve []byte
	for _, path := range segs {
		_, err := eachRecord(path, func(k []byte, _ eval.Point, line []byte) {
			var ok bool
			if curve, _, ok = eval.SplitKey(curve[:0], k); !ok {
				return
			}
			line = append(make([]byte, 0, len(line)+1), line...)
			if line[len(line)-1] != '\n' {
				line = append(line, '\n')
			}
			key := string(k)
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
		s.cells.Delete(entries[i].key)
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
	_, size, err := s.segments()
	return size, err
}

// segments returns the store's segment files in replay order and their
// total size.
func (s *Store) segments() (segs []string, size int64, err error) {
	if segs, err = filepath.Glob(filepath.Join(s.dir, segPattern)); err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	sort.Strings(segs)
	for _, path := range segs {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, 0, fmt.Errorf("store: %w", err)
		}
		size += fi.Size()
	}
	return segs, size, nil
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
