package store

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/race"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// refRecord is the reflective record the codec replaced: appendRecord
// must emit what json.Marshal emits for it.
type refRecord struct {
	Key   string     `json:"key"`
	Point eval.Point `json:"point"`
}

// parentCells is the content of testdata/parent-seg-000001.ndjson, a
// segment written by the last commit whose store went through
// encoding/json (these same Puts, in this order): the float forms where
// encoding/json changes shape, every flag combination, and keys that
// need escaping. Its fleet keys were re-spelled in the load values
// Scenario.Key writes once ParseKey accepted only those, and the segment
// re-written by the commit before that change — same codec, same bytes.
// When a store came to keep only a cell's key, the rest of its keys were
// re-spelled as Scenario.Keys (the escapes in a trace workload's path),
// the float forms were put under plain keys too, and the segment was
// re-written by the commit before that change: its first 17 lines are
// the legacy fleet lines, unchanged.
func parentCells() (keys []string, pts []eval.Point) {
	floats := []float64{
		0, math.Copysign(0, -1), 0.04, 88.125, 1e-6, 1e-7, 9.999e-7, 1e20, 1e21,
		5e-324, math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
		0.0005957626171073915, 406854.3414287861,
	}
	add := func(key string, p eval.Point) { keys, pts = append(keys, key), append(pts, p) }
	flag := func(p eval.Point, flags int) eval.Point {
		p.ModelSaturated, p.ModelNA, p.SimSaturated = flags&1 != 0, flags&2 != 0, flags&4 != 0
		p.BoundUnbounded, p.BoundNA = flags&8 != 0, flags&16 != 0
		return p
	}
	key := func(size int, load float64, trace string) string {
		sc := eval.Scenario{Topology: eval.Topology{Family: eval.FamilyBFT, Size: size}, MsgFlits: 16, Load: eval.Load{Frac: true, Value: load}}
		if trace != "" {
			sc.Workload = &workload.Spec{Trace: trace}
		}
		return sc.Key()
	}
	for _, salt := range []string{legacySalt, ""} {
		size := 256
		if salt != "" {
			size = 1024
		}
		for i, v := range floats {
			w := floats[(i+5)%len(floats)]
			add(salt+key(size, 0.5+float64(i)/64, ""),
				flag(eval.Point{LoadFlits: v, Model: w, Sim: w, SimCI: v, SimPrecision: w, BoundMax: v}, i))
		}
	}
	for flags := 0; flags < 32; flags++ {
		p := eval.NewPoint()
		p.LoadFlits, p.Model = 0.02, 12.8037109375
		add(key(64, float64(flags+1)/64, ""), flag(p, flags))
	}
	add(key(64, 0.5, `quote"and\backslash`), eval.NewPoint())
	add(key(64, 0.5, "html <&> sensitive"), eval.Point{LoadFlits: 1, Model: 2, Sim: 3, SimCI: 4, SimPrecision: 5, BoundMax: 6})
	add(key(64, 0.5, "non-ascii κλειδί \u2028 \x7f \t"), eval.Point{LoadFlits: 0.5, Model: math.Inf(1), ModelSaturated: true, Sim: math.NaN(), SimCI: math.NaN(), SimPrecision: math.NaN(), BoundMax: math.NaN()})
	return keys, pts
}

// legacySalt is the fleet tag older dispatchers wrote before a cell's
// key ("backends=remote(<shards>)|"): no runner writes or reads it.
const legacySalt = "backends=remote(http://127.0.0.1:8080,http://127.0.0.1:8081)|"

// viaWire is p as a replay returns it: what the encoding collapses to
// null comes back NaN, or +Inf under its flag.
func viaWire(t *testing.T, p eval.Point) eval.Point {
	t.Helper()
	var q eval.Point
	if err := json.Unmarshal(eval.AppendPoint(nil, p), &q); err != nil {
		t.Fatal(err)
	}
	return q
}

// TestParentSegmentInterop is the compatibility gate in both
// directions: a segment the parent commit's binary wrote replays cell
// for cell under this one, and this one writes the same Puts to the
// same bytes — so the parent replays ours. The segment's legacy fleet
// lines are not cells (TestParentFleetLinesStayReadable): this one neither
// replays nor writes them, and its codec still spells them as the parent
// did.
func TestParentSegmentInterop(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent-seg-000001.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	keys, pts := parentCells()

	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, "seg-000001.ndjson"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, old)
	defer s.Close()
	for i, k := range keys {
		ref, err := json.Marshal(refRecord{Key: k, Point: pts[i]})
		if err != nil {
			t.Fatal(err)
		}
		if line := appendRecord(nil, k, pts[i]); string(line) != string(ref)+"\n" {
			t.Errorf("appendRecord(%q)\n got  %s want %s", k, line, ref)
		}
	}
	var cells []byte // want's own lines, its legacy fleet lines left out
	for _, line := range bytes.SplitAfter(want, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"key":"`+legacySalt)) {
			cells = append(cells, line...)
		}
	}
	if s.Recovered() != len(keys)-17 || s.Dropped() != 17 {
		t.Fatalf("parent segment: recovered %d dropped %d, want %d/17", s.Recovered(), s.Dropped(), len(keys)-17)
	}
	for i, k := range keys {
		if strings.HasPrefix(k, legacySalt) {
			continue
		}
		got, ok := s.Get(k)
		if !ok || !eval.Same(got, viaWire(t, pts[i])) {
			t.Errorf("parent cell %q replayed as %+v (found %v), want %+v", k, got, ok, viaWire(t, pts[i]))
		}
	}

	fresh := t.TempDir()
	w := mustOpen(t, fresh)
	for i, k := range keys {
		w.Put(k, pts[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(fresh, "seg-000001.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cells) {
		t.Errorf("segment bytes differ from the parent-written one's cells:\n got  %s\n want %s", got, cells)
	}
}

// TestParentFleetLinesStayReadable: the parent's segment holds 17 fleet
// cells under the "backends=remote(<shards>)|" salt no runner writes or
// asks for any more. A stored key is a cell's key or nothing: Open drops
// the salted lines and counts them, the segment's plain cells recover and
// are served, a salted line answers for no key, and Compact — or a Prune
// that folds the segments — leaves none of them on disk.
func TestParentFleetLinesStayReadable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent-seg-000001.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.ndjson"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	keys, pts := parentCells()
	if n := bytes.Count(data, []byte(`{"key":"`+legacySalt)); n != 17 {
		t.Fatalf("the parent segment holds %d legacy fleet lines, want 17", n)
	}
	if s.Recovered() != len(keys)-17 || s.Dropped() != 17 {
		t.Fatalf("recovered %d dropped %d, want %d/17", s.Recovered(), s.Dropped(), len(keys)-17)
	}
	for i, k := range keys {
		plain, legacy := strings.CutPrefix(k, legacySalt)
		if legacy {
			if _, ok := s.Get(k); ok {
				t.Errorf("the legacy fleet line %q is served", k)
			}
			if _, ok := s.Get(plain); ok {
				t.Errorf("a legacy fleet line answers for the plain key %q", plain)
			}
			continue
		}
		if got, ok := s.Get(k); !ok || !eval.Same(got, viaWire(t, pts[i])) {
			t.Errorf("plain cell %q served as %+v (found %v)", k, got, ok)
		}
	}

	pruned := t.TempDir()
	if err := os.WriteFile(filepath.Join(pruned, "seg-000001.ndjson"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	p := mustOpen(t, pruned)
	defer p.Close()
	// A bound one byte under the segment makes Prune fold it; the legacy
	// lines' room is enough, so no cell is evicted.
	if evicted, err := p.Prune(int64(len(data)) - 1); err != nil || evicted != 0 {
		t.Fatalf("Prune evicted %d cells, err %v; want 0", evicted, err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, pruned} {
		segs, _ := filepath.Glob(filepath.Join(d, segPattern))
		for _, seg := range segs {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(b, []byte("backends=")) {
				t.Errorf("%s keeps a legacy fleet line after folding", seg)
			}
		}
		re := mustOpen(t, d)
		if re.Recovered() != len(keys)-17 || re.Dropped() != 0 {
			t.Errorf("%s after folding: recovered %d dropped %d, want %d/0", d, re.Recovered(), re.Dropped(), len(keys)-17)
		}
		re.Close()
	}
}

// TestStoreDropsRecordsWithoutAPoint is the corruption table for lines
// that are valid JSON but not a record: each once replayed as a cell —
// all zeros ("measured latency 0 cycles") or all NaN — and was served as
// a hit forever. A record carries a cell's key and a point object with
// its load_flits member, in whatever spelling; everything else — a valid
// point under a key that is not a cell's key included — is dropped and
// counted.
func TestStoreDropsRecordsWithoutAPoint(t *testing.T) {
	k := func(i int) string { return strconv.Quote(cellKey(i)) }
	lines := []struct {
		line string
		keep bool
	}{
		{`{"key":` + k(0) + `,"point":{"load_flits":0.01,"model":1}}`, true},
		{`{"key":` + k(10) + `}`, false},
		{`{"key":` + k(11) + `,"point":{}}`, false},
		{`{"key":` + k(12) + `,"point":null}`, false},
		{`{"key":` + k(13) + `,"point":{"model":3}}`, false},
		{`{"key":` + k(14) + `, "point": {"model": 3, "sim": 4}}`, false},
		{`{"key":"","point":{"load_flits":0.01,"model":1}}`, false},
		{`{"point":{"load_flits":0.01,"model":1}}`, false},
		{`{"key":` + k(15) + `,"point":5}`, false},
		{`this line is not JSON at all`, false},
		{`{"key":"a","point":{"load_flits":0.01,"model":1}}`, false},
		{`{"key":` + strconv.Quote(legacySalt+cellKey(16)) + `,"point":{"load_flits":0.01,"model":1}}`, false},
		{`{"key":` + k(1) + `,"point":{"load_flits":null,"model":null}}`, true},
		{`{ "key": ` + k(2) + `, "point": { "model": 2, "load_flits": 0.5 } }`, true},
		{`{"key":` + strings.Replace(k(3), "=", `\u003d`, 1) + `,"point":{"load_flits":0.02,"model":2}}`, true},
		{`{"key":` + k(4) + `,"point":{"load_flits":0.02,"model":2,"future_field":1},"also":true}`, true},
		{`{"key":` + k(5) + `,"point":{"load_flits":0.02,"model":2}}`, true},
	}
	var content strings.Builder
	kept := 0
	for _, l := range lines {
		content.WriteString(l.line + "\n")
		if l.keep {
			kept++
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.ndjson"), []byte(content.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	if s.Recovered() != kept || s.Dropped() != len(lines)-kept {
		t.Errorf("recovered %d dropped %d, want %d/%d", s.Recovered(), s.Dropped(), kept, len(lines)-kept)
	}
	for _, i := range []int{10, 11, 12, 13, 14, 15} {
		if p, ok := s.Get(cellKey(i)); ok {
			t.Errorf("pointless record %q served as the cell %+v", cellKey(i), p)
		}
	}
	for i := 0; i < 6; i++ {
		if _, ok := s.Get(cellKey(i)); !ok {
			t.Errorf("valid record %q lost", cellKey(i))
		}
	}
}

// checkRecord is the differential property of one line: what the scan
// path accepts, the encoding/json path decodes identically.
func checkRecord(t *testing.T, line []byte) {
	t.Helper()
	var scanned, decoded eval.Point
	key, ok := scanRecord(line, &scanned)
	if !ok {
		return
	}
	refKey, refOK := decodeRecord(line, &decoded)
	if len(key) == 0 {
		if refOK {
			t.Fatalf("scan path saw an empty key in %q, encoding/json accepted %q", line, refKey)
		}
		return
	}
	if !refOK || refKey != string(key) || !eval.Same(scanned, decoded) {
		t.Fatalf("scanRecord(%q) = %q %+v, encoding/json says %v %q %+v", line, key, scanned, refOK, refKey, decoded)
	}
	var ref struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(line, &ref); err != nil || ref.Key != string(key) {
		t.Fatalf("scanRecord(%q) key %q, json.Unmarshal says %q (err %v)", line, key, ref.Key, err)
	}
}

var recordLines = []string{
	`{"key":"a","point":{"load_flits":0.01,"model":1}}` + "\n",
	`{"key":"a","point":{"load_flits":0.01,"model":1}}`,
	`{"key":"","point":{"load_flits":0.01,"model":1}}`,
	`{"key":"k"}`, `{"key":"k","point":{}}`, `{"key":"k","point":null}`,
	`{"key":"quote\"and\\backslash","point":{"load_flits":null,"model":null}}`,
	`{"key":"html \u003c\u0026\u003e sensitive","point":{"load_flits":1,"model":2}}`,
	`{"key":"raw <&> html","point":{"load_flits":1,"model":2}}`,
	`{"key":"κλειδί","point":{"load_flits":1,"model":2}}`,
	"{\"key\":\"ctl\x01\",\"point\":{\"load_flits\":1,\"model\":2}}",
	"{\"key\":\"bad\xffutf8\",\"point\":{\"load_flits\":1,\"model\":2}}",
	`{"key":"a","point":{"load_flits":0.01,"model":1}}` + "\r\n",
	`{"key":"a","point":{"load_flits":0.01,"model":1}} `,
	`{"key":"a","point":{"load_flits":0.01,"model":1}}}`,
	`{"key":"a","point":{"load_flits":0.01,"model":1},"x":1}`,
	`{"index":3,"point":{"load_flits":0.01,"model":1}}`,
	`{"index":-1}`,
	`{"index":2,"error":"boom"}`,
	``, `{`, `null`, "\n",
}

func TestRecordScanMatchesEncodingJSON(t *testing.T) {
	for _, l := range recordLines {
		checkRecord(t, []byte(l))
	}
	keys, pts := parentCells()
	for i, k := range keys {
		line := appendRecord(nil, k, pts[i])
		checkRecord(t, line)
		var p eval.Point
		if got, ok := parseRecord(line, &p); !ok || string(got) != k || !eval.Same(p, viaWire(t, pts[i])) {
			t.Errorf("parseRecord(%q) = %q, %v, %+v", line, got, ok, p)
		}
	}
}

// FuzzParseRecord holds the record scanner to encoding/json on any
// bytes, and the two paths of parseRecord to each other.
func FuzzParseRecord(f *testing.F) {
	for _, l := range recordLines {
		f.Add([]byte(l))
	}
	keys, pts := parentCells()
	for i, k := range keys {
		f.Add(appendRecord(nil, k, pts[i]))
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkRecord(t, line) })
}

// TestRecordLinePrefixesRejected is the truncation table: a record line
// cut at any byte offset short of its closing brace is dropped by both
// paths — a torn write can cost its own record, never plant a wrong one.
func TestRecordLinePrefixesRejected(t *testing.T) {
	keys, pts := parentCells()
	for _, i := range []int{0, 5, 12, len(keys) - 3, len(keys) - 1} {
		line := appendRecord(nil, keys[i], pts[i])
		value := line[:len(line)-1] // the newline is the separator, not the value
		var p eval.Point
		for n := 0; n < len(value); n++ {
			if plainLen(keys[i]) == len(keys[i]) {
				if _, ok := scanRecord(value[:n], &p); ok {
					t.Errorf("scan path accepted the %d-byte prefix %q", n, value[:n])
				}
			}
			if _, ok := decodeRecord(value[:n], &p); ok {
				t.Errorf("encoding/json path accepted the %d-byte prefix %q", n, value[:n])
			}
			if key, ok := parseRecord(value[:n], &p); ok {
				t.Errorf("parseRecord accepted the %d-byte prefix %q as %q", n, value[:n], key)
			}
		}
		for _, whole := range [][]byte{line, value} {
			if key, ok := parseRecord(whole, &p); !ok || string(key) != keys[i] {
				t.Errorf("parseRecord(%q) = %q, %v", whole, key, ok)
			}
		}
	}
}

// TestStoreRecordAllocs is the store's allocation budget: building a
// record line into the reused buffer allocates nothing, and replaying the
// segment a Runner writes for the bench's model grid — 80 curves of 32
// loads — allocates per curve, not per record: at most 0.3 allocations
// per record, Open's own included (a key string per record cost 1.02).
func TestStoreRecordAllocs(t *testing.T) {
	keys, pts := parentCells()
	key, p := keys[3], pts[3]
	buf := appendRecord(nil, key, p)
	if n := testing.AllocsPerRun(200, func() { buf = appendRecord(buf[:0], key, p) }); n != 0 {
		t.Errorf("appendRecord into a reused buffer: %v allocs, want 0", n)
	}

	spec := sweep.Spec{
		Name:       "bench-model",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16, 64, 256, 1024, 4096}}},
		MsgFlits:   []int{8, 16, 32, 64},
		Variants: []sweep.Variant{
			{Name: "paper"},
			{Name: "no-blocking", NoBlockingCorrection: true},
			{Name: "single-server", SingleServerGroups: true},
			{Name: "pre-erratum", NoPairRateCorrection: true},
		},
		Loads: sweep.LoadSpec{Points: 32, MaxFrac: 0.98},
	}
	dir := t.TempDir()
	w := mustOpen(t, dir)
	res, err := sweep.NewRunner(sweep.WithCache(w)).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	records := len(res.Rows)
	if records != 80*32 {
		t.Fatalf("the grid has %d cells, want 80 curves of 32", records)
	}
	n := testing.AllocsPerRun(5, func() {
		s, err := Open(dir)
		if err != nil || s.Len() != records || s.Dropped() != 0 {
			t.Fatalf("replay: %v, %d cells, %d dropped", err, s.Len(), s.Dropped())
		}
		s.Close()
	})
	t.Logf("replay of %d records: %v allocs, %.3f per record", records, n, n/float64(records))
	if n > 0.3*float64(records) && !race.Enabled {
		t.Errorf("replay of %d records: %v allocs, want at most 0.3 per record", records, n)
	}
}
