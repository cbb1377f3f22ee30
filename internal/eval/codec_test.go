package eval

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// refPoint is the reflective wire struct the codec replaced, kept here
// as the reference both directions are differenced against: AppendPoint
// must emit what json.Marshal emits for it, and ParsePoint must decode
// what json.Unmarshal decodes into it.
type refPoint struct {
	LoadFlits      *float64 `json:"load_flits"`
	Model          *float64 `json:"model"`
	ModelSaturated bool     `json:"model_saturated,omitempty"`
	ModelNA        bool     `json:"model_na,omitempty"`
	Sim            *float64 `json:"sim,omitempty"`
	SimCI          *float64 `json:"sim_ci,omitempty"`
	SimSaturated   bool     `json:"sim_saturated,omitempty"`
	SimPrecision   *float64 `json:"sim_precision,omitempty"`
	BoundMax       *float64 `json:"bound_max,omitempty"`
	BoundUnbounded bool     `json:"bound_unbounded,omitempty"`
	BoundNA        bool     `json:"bound_na,omitempty"`
}

func refEncode(p Point) ([]byte, error) {
	return json.Marshal(refPoint{
		LoadFlits: Finite(p.LoadFlits), Model: Finite(p.Model),
		ModelSaturated: p.ModelSaturated, ModelNA: p.ModelNA,
		Sim: Finite(p.Sim), SimCI: Finite(p.SimCI), SimSaturated: p.SimSaturated,
		SimPrecision: Finite(p.SimPrecision),
		BoundMax:     Finite(p.BoundMax), BoundUnbounded: p.BoundUnbounded, BoundNA: p.BoundNA,
	})
}

func (w refPoint) point() Point {
	p := Point{
		LoadFlits: OrNaN(w.LoadFlits), Model: OrNaN(w.Model),
		ModelSaturated: w.ModelSaturated, ModelNA: w.ModelNA,
		Sim: OrNaN(w.Sim), SimCI: OrNaN(w.SimCI), SimSaturated: w.SimSaturated,
		SimPrecision: OrNaN(w.SimPrecision),
		BoundMax:     OrNaN(w.BoundMax), BoundUnbounded: w.BoundUnbounded, BoundNA: w.BoundNA,
	}
	if w.ModelSaturated && w.Model == nil {
		p.Model = math.Inf(1)
	}
	if w.BoundUnbounded && w.BoundMax == nil {
		p.BoundMax = math.Inf(1)
	}
	return p
}

// codecFloats are the values where encoding/json's float form changes
// shape — the 'f'/'e' cutoffs, the exponent clean-up, the subnormal and
// largest magnitudes, signed zero, the non-finite trio — plus the bench
// goldens' extremes.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.04, 88.125,
	1e-6, 1e-7, 9.999e-7, 0.000001234567890123456, 1e-10, 1.5e-300,
	1e20, 1e21, 123456789012345680000, 1.7e22,
	5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
	0.0005957626171073915, 406854.3414287861, 0.10063884809565084,
}

func flagged(p Point, flags uint8) Point {
	p.ModelSaturated = flags&1 != 0
	p.ModelNA = flags&2 != 0
	p.SimSaturated = flags&4 != 0
	p.BoundUnbounded = flags&8 != 0
	p.BoundNA = flags&16 != 0
	return p
}

// checkCodec is the differential property of both directions for one
// point and one byte string.
func checkCodec(t *testing.T, p Point, raw []byte) {
	t.Helper()
	got := AppendPoint(nil, p)
	want, err := refEncode(p)
	if err != nil {
		t.Fatalf("reference encode of %+v: %v", p, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendPoint(%+v)\n  got  %s\n  want %s", p, got, want)
	}
	// What the codec writes is canonical: its own scanner must take it.
	var back Point
	if rest, ok := ParsePoint(got, &back); !ok || len(rest) != 0 {
		t.Fatalf("ParsePoint rejected AppendPoint's own output %s (rest %q)", got, rest)
	}
	var ref refPoint
	if err := json.Unmarshal(got, &ref); err != nil {
		t.Fatalf("reference decode of %s: %v", got, err)
	}
	if !Same(back, ref.point()) {
		t.Fatalf("ParsePoint(%s) = %+v, encoding/json says %+v", got, back, ref.point())
	}

	// Anything the scanner accepts decodes exactly as encoding/json does.
	var scanned Point
	rest, ok := ParsePoint(raw, &scanned)
	if !ok {
		return
	}
	obj := raw[:len(raw)-len(rest)]
	ref = refPoint{}
	if err := json.Unmarshal(obj, &ref); err != nil {
		t.Fatalf("ParsePoint accepted %q, encoding/json rejects it: %v", obj, err)
	}
	if !Same(scanned, ref.point()) {
		t.Fatalf("ParsePoint(%q) = %+v, encoding/json says %+v", obj, scanned, ref.point())
	}
	var viaFallback Point
	if _, err := viaFallback.decode(obj); err != nil || !Same(scanned, viaFallback) {
		t.Fatalf("ParsePoint(%q) = %+v, the fallback says %+v (err %v)", obj, scanned, viaFallback, err)
	}
}

// codecInputs are byte strings around the canonical form: inside it,
// just outside it (the fallback's business) and not JSON at all.
var codecInputs = []string{
	`{"load_flits":0.04,"model":88.125,"sim":91.0625,"sim_ci":1.75,"sim_saturated":true}`,
	`{"load_flits":null,"model":null}`,
	`{"load_flits":1.5,"model":null,"model_saturated":true}`,
	`{"load_flits":0.2,"model":3,"bound_unbounded":true,"bound_na":true}trailing`,
	`{"load_flits":-0,"model":1e-7,"model_na":true,"sim":5e-324,"sim_ci":1.7976931348623157e+308,"sim_precision":9.999e-7,"bound_max":1e+21}`,
	`{"load_flits":1,"model":2,"model_saturated":false,"sim":null}`,
	`{"load_flits":1E2,"model":2e+0}`,
	`{"load_flits":1e999,"model":2}`,
	`{"load_flits":01,"model":2}`,
	`{"load_flits":1.,"model":2}`,
	`{"load_flits":.5,"model":2}`,
	`{"load_flits":+1,"model":2}`,
	`{"load_flits":0x10,"model":2}`,
	`{"load_flits":1_0,"model":2}`,
	`{"load_flits":Inf,"model":NaN}`,
	`{"load_flits":1,"model":2,"model":3}`,
	`{"model":2,"load_flits":1}`,
	`{"load_flits": 1, "model": 2}`,
	`{"load_flits":1,"model":2,"extra":true}`,
	`{"LOAD_FLITS":1,"model":2}`,
	`{"load_flits":"1","model":2}`,
	`{"load_flits":1,"model":2,"model_saturated":1}`,
	`{}`, `null`, ``, `{`, `[1,2]`, "\xff\xfe",
}

// TestPointCodecMatchesEncodingJSON runs the fuzz property over the
// full cross product of the seed values, so `go test` pins the byte
// identity without the fuzzer.
func TestPointCodecMatchesEncodingJSON(t *testing.T) {
	for _, raw := range codecInputs {
		checkCodec(t, NewPoint(), []byte(raw))
	}
	for i, a := range codecFloats {
		for j, b := range codecFloats {
			for flags := uint8(0); flags < 32; flags++ {
				c := codecFloats[(i+j)%len(codecFloats)]
				p := flagged(Point{LoadFlits: a, Model: b, Sim: c, SimCI: a, SimPrecision: b, BoundMax: c}, flags)
				checkCodec(t, p, nil)
				p = flagged(Point{LoadFlits: c, Model: a, Sim: math.NaN(), SimCI: math.NaN(), SimPrecision: math.NaN(), BoundMax: b}, flags)
				checkCodec(t, p, nil)
			}
		}
	}
}

// FuzzPointCodec is the codec's contract: AppendPoint(p) is
// byte-identical to json.Marshal of the reflective reference struct, and
// whatever ParsePoint accepts decodes — field by field, NaN equal to
// NaN — as json.Unmarshal decodes the same bytes.
func FuzzPointCodec(f *testing.F) {
	for i, v := range codecFloats {
		w := codecFloats[(i+7)%len(codecFloats)]
		f.Add(v, w, v, w, v, w, uint8(i), []byte(codecInputs[i%len(codecInputs)]))
		f.Add(w, v, math.NaN(), math.NaN(), math.NaN(), v, uint8(31-i), AppendPoint(nil, flagged(Point{LoadFlits: v, Model: w, Sim: w, BoundMax: v}, uint8(i))))
	}
	for flags := uint8(0); flags < 32; flags++ {
		f.Add(0.04, 88.125, 91.0625, 1.75, 0.0192, 1594.625, flags, []byte(codecInputs[int(flags)%len(codecInputs)]))
	}
	for _, raw := range codecInputs {
		f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0), []byte(raw))
	}
	f.Fuzz(func(t *testing.T, load, model, sim, ci, prec, bound float64, flags uint8, raw []byte) {
		p := flagged(Point{LoadFlits: load, Model: model, Sim: sim, SimCI: ci, SimPrecision: prec, BoundMax: bound}, flags)
		checkCodec(t, p, raw)
	})
}

// refReadItems is readItems as it was before the scan path: a
// json.Decoder over the whole stream. FuzzParseItem holds the new reader
// to it, so the accepted stream language and every error class are
// pinned, not described.
func refReadItems(r io.Reader, alive func(), url string, lo, hi int, fn func(*PartItem) error) error {
	s := itemStream{alive: alive, url: url, lo: lo, hi: hi, fn: fn, seen: make([]bool, hi-lo)}
	return s.decode(r)
}

// itemTrace runs one reader over a stream and records everything a
// caller can observe: each delivered item, the keepalive count, the
// error's text and class.
func itemTrace(read func(io.Reader, func(), string, int, int, func(*PartItem) error) error, stream []byte) string {
	var b strings.Builder
	alive := 0
	err := read(bytes.NewReader(stream), func() { alive++ }, "u", 0, 8, func(it *PartItem) error {
		fmt.Fprintf(&b, "item %d err=%q", it.Index, it.Error)
		if it.Point != nil {
			fmt.Fprintf(&b, " point=%s", AppendPoint(nil, *it.Point))
		}
		b.WriteByte('\n')
		if it.Index == 7 {
			return errors.New("consumer stop")
		}
		return nil
	})
	_, transient := Transient(err)
	fmt.Fprintf(&b, "alive=%d transient=%v err=%v\n", alive, transient, err)
	return b.String()
}

var itemStreams = []string{
	"",
	`{"index":0,"point":{"load_flits":0.04,"model":88.125}}` + "\n",
	`{"index":0,"point":{"load_flits":0.04,"model":88.125}}`,
	`{"index":3,"point":{"load_flits":null,"model":null,"model_saturated":true}}` + "\n" + `{"index":-1}` + "\n" + `{"index":4,"point":{"load_flits":1,"model":2}}` + "\n",
	`{"index":-1}` + "\n",
	`{"index":2,"error":"eval: no such family \"x\""}` + "\n",
	`{"index":-1,"error":"shard draining"}` + "\n",
	`{"error":"request failed"}` + "\n",
	`{"index":1}` + "\n",
	`{"index":9,"point":{"load_flits":1,"model":2}}` + "\n",
	`{"index":-3,"point":{"load_flits":1,"model":2}}` + "\n",
	`{"index":1,"point":{"load_flits":1,"model":2}}` + "\n" + `{"index":1,"point":{"load_flits":5,"model":6}}` + "\n",
	`{"index":1,"point":{"load_flits":1,"model":2}}{"index":2,"point":{"load_flits":1,"model":2}}` + "\n",
	`{"index":1,"point":{"load_flits":1,"model":2}}garbage` + "\n",
	`{"index":1,"point":{"load_flits":1,"mod`,
	`{"index":1,"point":{"load_flits":1,"model":2}}` + "\r\n" + `{ "index": 2, "point": { "load_flits": 1, "model": 2 } }` + "\n",
	"{\n\"index\": 5,\n\"point\": {\"model\": 2}\n}\n",
	`{"index":1.0,"point":{"load_flits":1,"model":2}}` + "\n",
	`{"index":1e0,"point":{"load_flits":1,"model":2}}` + "\n",
	`{"index":99999999999999999999,"point":{"load_flits":1,"model":2}}` + "\n",
	`{"index":01,"point":{"load_flits":1,"model":2}}` + "\n",
	`{"index":7,"point":{"load_flits":1,"model":2}}` + "\n" + `{"index":6,"point":{"load_flits":1,"model":2}}` + "\n",
	`{"index":0,"point":null}` + "\n",
	`{"index":0,"point":{}}` + "\n",
	`{"index":0,"point":{"load_flits":1,"model":2},"error":"both"}` + "\n",
	`{"index":1,"point":{"load_flits":1,"model":2}}` + "\n" + strings.Repeat("x", 5000) + "\n",
	`{"index":2,"error":"` + strings.Repeat("long ", 1200) + `"}` + "\n" + `{"index":3,"point":{"load_flits":1,"model":2}}` + "\n",
}

func checkItemStream(t *testing.T, stream []byte) {
	t.Helper()
	got, want := itemTrace(readItems, stream), itemTrace(refReadItems, stream)
	if got != want {
		t.Fatalf("readItems diverges from the json.Decoder reference on %q\n got:\n%s want:\n%s", stream, got, want)
	}
	// Line level: what the scanner accepts, encoding/json decodes alike.
	var pt Point
	index, ok := parseItem(stream, &pt)
	if !ok {
		return
	}
	var ref struct {
		Index int       `json:"index"`
		Point *refPoint `json:"point"`
		Error string    `json:"error"`
	}
	if err := json.Unmarshal(stream, &ref); err != nil {
		t.Fatalf("parseItem accepted %q, encoding/json rejects it: %v", stream, err)
	}
	if ref.Index != index || ref.Error != "" || ref.Point == nil || !Same(pt, ref.Point.point()) {
		t.Fatalf("parseItem(%q) = %d %+v, encoding/json says %+v %+v", stream, index, pt, ref, ref.Point)
	}
}

func TestReadItemsMatchesDecoder(t *testing.T) {
	for _, s := range itemStreams {
		checkItemStream(t, []byte(s))
	}
}

// FuzzParseItem holds the line scanner and the stream reader built on it
// to encoding/json: same items, same keepalives, same error text and
// class for any byte stream.
func FuzzParseItem(f *testing.F) {
	for _, s := range itemStreams {
		f.Add([]byte(s))
	}
	for i, v := range codecFloats {
		f.Add(AppendItem(nil, i%8, flagged(Point{LoadFlits: v, Model: v, Sim: v, SimCI: v, SimPrecision: v, BoundMax: v}, uint8(i))))
	}
	f.Fuzz(func(t *testing.T, stream []byte) { checkItemStream(t, stream) })
}

// TestItemLinePrefixesRejected is the truncation table: a canonical item
// line cut at any byte offset short of its closing brace is a line
// neither path accepts, so a torn stream can never deliver a cell built
// from half a line.
func TestItemLinePrefixesRejected(t *testing.T) {
	full := flagged(Point{LoadFlits: 0.04, Model: 1e-7, Sim: 91.0625, SimCI: 1.75, SimPrecision: 0.0192, BoundMax: 1e21}, 31)
	for _, p := range []Point{NewPoint(), {LoadFlits: 0.04, Model: 88.125, Sim: math.NaN(), SimCI: math.NaN(), SimPrecision: math.NaN(), BoundMax: math.NaN()}, full} {
		line := AppendItem(nil, 5, p)
		value := line[:len(line)-1] // the newline is the separator, not the value
		var pt Point
		for _, whole := range [][]byte{line, value} {
			if index, ok := parseItem(whole, &pt); !ok || index != 5 || !Same(pt, p.viaWire()) {
				t.Fatalf("parseItem(%q) = %d, %v, %+v", whole, index, ok, pt)
			}
		}
		for n := 0; n < len(value); n++ {
			if _, ok := parseItem(value[:n], &pt); ok {
				t.Errorf("scan path accepted the %d-byte prefix %q", n, value[:n])
			}
			var it PartItem
			if err := json.Unmarshal(value[:n], &it); err == nil {
				t.Errorf("encoding/json accepted the %d-byte prefix %q", n, value[:n])
			}
			if n > 0 {
				if got := itemTrace(readItems, value[:n]); !strings.Contains(got, "transient=true") || strings.Contains(got, "item ") {
					t.Errorf("stream torn at byte %d: %s", n, got)
				}
			}
		}
	}
}

// viaWire is p as it comes back off the wire: the non-finite values the
// encoding collapses to null return as NaN, or +Inf under a flag.
func (p Point) viaWire() Point {
	var q Point
	if _, err := q.decode(AppendPoint(nil, p)); err != nil {
		panic(err)
	}
	return q
}

// TestWireItemAllocs is the wire's allocation budget: encoding a success
// line into a reused buffer and scanning it back allocate nothing.
func TestWireItemAllocs(t *testing.T) {
	p := flagged(Point{LoadFlits: 0.0005957626171073915, Model: 406854.3414287861, Sim: 1e-7, SimCI: 1.75, SimPrecision: 5e-324, BoundMax: math.MaxFloat64}, 4)
	buf := AppendItem(nil, 2559, p)
	if n := testing.AllocsPerRun(200, func() { buf = AppendItem(buf[:0], 2559, p) }); n != 0 {
		t.Errorf("AppendItem into a reused buffer: %v allocs, want 0", n)
	}
	var back Point
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := parseItem(buf, &back); !ok {
			t.Fatal("parseItem rejected a canonical line")
		}
	}); n != 0 {
		t.Errorf("parseItem: %v allocs, want 0", n)
	}
	if !Same(back, p) {
		t.Errorf("round trip changed the point: %+v → %+v", p, back)
	}
}
