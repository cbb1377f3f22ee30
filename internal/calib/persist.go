package calib

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/eval"
)

// mapVersion is the persisted file's schema version; LoadMap rejects
// anything else rather than guessing.
const mapVersion = 1

// MapFileName is the conventional file name a calibration map is kept
// under inside a store directory. It deliberately does not match the
// store's seg-*.ndjson glob, so the two can share a directory without
// the store replaying (or Compact deleting) the map.
const MapFileName = "calib-map.json"

type mapFile struct {
	Version int            `json:"version"`
	Pairs   int64          `json:"pairs"`
	Regions []regionRecord `json:"regions"`
	Seen    []string       `json:"seen"`
}

type regionRecord struct {
	Region Region `json:"region"`
	Acc    acc    `json:"acc"`
}

// Save writes the map atomically (temp file + rename in the target's
// directory) so a crash mid-write leaves the previous map intact. The
// raw accumulators and the seen-key set are persisted, so a reloaded
// map keeps accumulating exactly where it left off.
func (m *Map) Save(path string) error {
	m.mu.Lock()
	f := mapFile{Version: mapVersion, Pairs: m.pairs}
	f.Regions = make([]regionRecord, 0, len(m.regions))
	for r, a := range m.regions {
		f.Regions = append(f.Regions, regionRecord{Region: r, Acc: *a})
	}
	f.Seen = make([]string, 0, len(m.seen))
	for k := range m.seen {
		f.Seen = append(f.Seen, k)
	}
	m.mu.Unlock()
	sort.Slice(f.Regions, func(i, j int) bool {
		return f.Regions[i].Region.String() < f.Regions[j].Region.String()
	})
	sort.Strings(f.Seen)

	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("calib: marshal map: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".calib-map-*.tmp")
	if err != nil {
		return fmt.Errorf("calib: save map: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("calib: save map: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("calib: save map: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("calib: save map: %w", err)
	}
	return nil
}

// LoadMap reads a map persisted by Save. A missing file is not an
// error: it returns a fresh empty map, so callers can unconditionally
// LoadMap(dir/calib-map.json) on startup.
func LoadMap(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewMap(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("calib: load map: %w", err)
	}
	var f mapFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("calib: load map %s: %w", path, err)
	}
	if f.Version != mapVersion {
		return nil, fmt.Errorf("calib: load map %s: version %d, want %d", path, f.Version, mapVersion)
	}
	m := NewMap()
	m.pairs = f.Pairs
	for _, rec := range f.Regions {
		a := rec.Acc
		m.regions[rec.Region] = &a
	}
	for _, k := range f.Seen {
		_, cell := eval.CutSalt(k) // maps saved while runners fed salted lines hold them
		m.seen[cell] = struct{}{}
	}
	return m, nil
}

// MapPath returns the conventional map location inside a store
// directory.
func MapPath(storeDir string) string {
	return filepath.Join(storeDir, MapFileName)
}

// Compile-time check that eval.Point round-trips through the store
// interface the Source contract assumes.
var _ Source = sourceFunc(nil)

// sourceFunc adapts a plain range function to Source (used in tests and
// by callers that filter another source).
type sourceFunc func(fn func(key string, pt eval.Point) bool)

func (f sourceFunc) Range(fn func(key string, pt eval.Point) bool) { f(fn) }
