package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/eval"
	"repro/internal/race"
	"repro/internal/sweep"
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
	for i, v := range floats {
		w := floats[(i+5)%len(floats)]
		add("backends=remote(http://127.0.0.1:8080,http://127.0.0.1:8081)|family=bft size=1024 k=0 flits=16 policy=pairqueue frac=true load="+
			strconv.FormatFloat(0.5+float64(i)/64, 'x', -1, 64)+" sim=false",
			flag(eval.Point{LoadFlits: v, Model: w, Sim: w, SimCI: v, SimPrecision: w, BoundMax: v}, i))
	}
	for flags := 0; flags < 32; flags++ {
		p := eval.NewPoint()
		p.LoadFlits, p.Model = 0.02, 12.8037109375
		add(fmt.Sprintf("flags=%d", flags), flag(p, flags))
	}
	add(`quote"and\backslash`, eval.NewPoint())
	add("html <&> sensitive", eval.Point{LoadFlits: 1, Model: 2, Sim: 3, SimCI: 4, SimPrecision: 5, BoundMax: 6})
	add("non-ascii κλειδί \u2028 \x7f \t", eval.Point{LoadFlits: 0.5, Model: math.Inf(1), ModelSaturated: true, Sim: math.NaN(), SimCI: math.NaN(), SimPrecision: math.NaN(), BoundMax: math.NaN()})
	return keys, pts
}

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
// same bytes — so the parent replays ours.
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
	if s.Recovered() != len(keys) || s.Dropped() != 0 {
		t.Fatalf("parent segment: recovered %d dropped %d, want %d/0", s.Recovered(), s.Dropped(), len(keys))
	}
	for i, k := range keys {
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
	if !bytes.Equal(got, want) {
		t.Errorf("segment bytes differ from the parent-written one:\n got  %s\n want %s", got, want)
	}
	for i, k := range keys {
		ref, err := json.Marshal(refRecord{Key: k, Point: pts[i]})
		if err != nil {
			t.Fatal(err)
		}
		if line := appendRecord(nil, k, pts[i]); string(line) != string(ref)+"\n" {
			t.Errorf("appendRecord(%q)\n got  %s want %s", k, line, ref)
		}
	}
}

// TestParentFleetLinesStayReadable: the parent's segment holds fleet cells
// under the "backends=remote(<shards>)|" salt no runner writes or asks for
// any more. They are never hit again, and nothing migrates them: the
// segment still opens whole, the calibration layer still mines the
// measurements behind the salt — once each, whatever a live run under the
// plain key has already fed it — and Prune evicts them oldest-first like
// any other record.
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
	if s.Recovered() != len(keys) || s.Dropped() != 0 {
		t.Fatalf("recovered %d dropped %d, want %d/0", s.Recovered(), s.Dropped(), len(keys))
	}

	ctx := context.Background()
	var legacy, measured int
	m := calib.NewMap()
	for i, line := range keys {
		_, key, ok := strings.Cut(line, "|")
		if !ok || !strings.HasPrefix(line, "backends=remote(") {
			continue
		}
		legacy++
		if _, ok := s.Get(key); ok {
			t.Errorf("a legacy fleet line answers for the plain key %q", key)
		}
		p := viaWire(t, pts[i])
		if p.ModelSaturated || p.ModelNA || p.SimSaturated || math.IsInf(p.Model, 0) || !(p.Sim > 0) {
			continue // not a model-vs-sim pair
		}
		// The first measurement has also been made live, under its key.
		if measured == 0 && !m.Observe(key, p) {
			t.Errorf("the plain key %q did not pair", key)
		}
		measured++
	}
	if legacy != 17 || measured < 2 {
		t.Fatalf("the parent segment holds %d legacy fleet line(s), %d of them usable measurements", legacy, measured)
	}
	if added, again := m.Mine(ctx, s), m.Mine(ctx, s); added != measured-1 || again != 0 {
		t.Errorf("mining added %d pair(s) beside the one fed live, then %d more; want %d and 0", added, again, measured-1)
	}

	before, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	evicted, err := s.Prune(before / 2)
	if err != nil {
		t.Fatal(err)
	}
	if evicted == 0 || evicted >= len(keys) {
		t.Fatalf("halving the bound evicted %d of %d cells", evicted, len(keys))
	}
	for i, key := range keys {
		if _, ok := s.Get(key); ok != (i >= evicted) {
			t.Errorf("record %d (%q): live=%v after the %d oldest were evicted", i, key, ok, evicted)
		}
	}
}

// TestStoreDropsRecordsWithoutAPoint is the corruption table for lines
// that are valid JSON but not a record: each once replayed as a cell —
// all zeros ("measured latency 0 cycles") or all NaN — and was served as
// a hit forever. A record carries a key and a point object with its
// load_flits member, in whatever spelling; everything else is dropped
// and counted.
func TestStoreDropsRecordsWithoutAPoint(t *testing.T) {
	lines := []struct {
		line string
		keep bool
	}{
		{`{"key":"a","point":{"load_flits":0.01,"model":1}}`, true},
		{`{"key":"nopoint"}`, false},
		{`{"key":"empty","point":{}}`, false},
		{`{"key":"null","point":null}`, false},
		{`{"key":"noload","point":{"model":3}}`, false},
		{`{"key":"noload2", "point": {"model": 3, "sim": 4}}`, false},
		{`{"key":"","point":{"load_flits":0.01,"model":1}}`, false},
		{`{"point":{"load_flits":0.01,"model":1}}`, false},
		{`{"key":"num","point":5}`, false},
		{`this line is not JSON at all`, false},
		{`{"key":"nullload","point":{"load_flits":null,"model":null}}`, true},
		{`{ "key": "spaced", "point": { "model": 2, "load_flits": 0.5 } }`, true},
		{`{"key":"escaped","point":{"load_flits":0.02,"model":2}}`, true},
		{`{"key":"extra","point":{"load_flits":0.02,"model":2,"future_field":1},"also":true}`, true},
		{`{"key":"b","point":{"load_flits":0.02,"model":2}}`, true},
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
	for _, k := range []string{"nopoint", "empty", "null", "noload", "noload2", "num"} {
		if p, ok := s.Get(k); ok {
			t.Errorf("pointless record %q served as the cell %+v", k, p)
		}
	}
	for _, k := range []string{"a", "nullload", "spaced", "escaped", "extra", "b"} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("valid record %q lost", k)
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
