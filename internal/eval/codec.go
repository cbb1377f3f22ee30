package eval

import (
	"math"
	"strconv"
)

// This file is the Point codec: the one place the cell's wire JSON is
// written (AppendPoint) and the one place its canonical form is scanned
// (ParsePoint), shared by the serving layer's NDJSON item lines and the
// store's record lines. Point's field names appear here once for each
// direction and nowhere else.
//
// The canonical form is exactly what AppendPoint emits: the keys below
// in this order, load_flits and model always present (null when
// non-finite), every other key omitted when unset, no whitespace.
// ParsePoint accepts that form and nothing else; any other spelling of a
// point — a third-party client's spacing or key order, an unknown field —
// is left to the encoding/json fallback (Point.UnmarshalJSON), so the
// accepted input language is encoding/json's.

// AppendPoint appends p's wire JSON to dst, byte for byte what
// encoding/json emits for the reflective wire struct (pinned by
// FuzzPointCodec): non-finite load_flits and model as null, every other
// non-finite or false field omitted.
func AppendPoint(dst []byte, p Point) []byte {
	dst = appendNumber(append(dst, `{"load_flits":`...), p.LoadFlits)
	dst = appendNumber(append(dst, `,"model":`...), p.Model)
	if p.ModelSaturated {
		dst = append(dst, `,"model_saturated":true`...)
	}
	if p.ModelNA {
		dst = append(dst, `,"model_na":true`...)
	}
	if finite(p.Sim) {
		dst = appendNumber(append(dst, `,"sim":`...), p.Sim)
	}
	if finite(p.SimCI) {
		dst = appendNumber(append(dst, `,"sim_ci":`...), p.SimCI)
	}
	if p.SimSaturated {
		dst = append(dst, `,"sim_saturated":true`...)
	}
	if finite(p.SimPrecision) {
		dst = appendNumber(append(dst, `,"sim_precision":`...), p.SimPrecision)
	}
	if finite(p.BoundMax) {
		dst = appendNumber(append(dst, `,"bound_max":`...), p.BoundMax)
	}
	if p.BoundUnbounded {
		dst = append(dst, `,"bound_unbounded":true`...)
	}
	if p.BoundNA {
		dst = append(dst, `,"bound_na":true`...)
	}
	return append(dst, '}')
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// appendNumber appends v the way encoding/json formats a float64 — 'f',
// or 'e' outside [1e-6, 1e21) with the two-digit negative exponent
// trimmed (e-07 → e-7) — and null when v is not finite.
func appendNumber(dst []byte, v float64) []byte {
	if !finite(v) {
		return append(dst, "null"...)
	}
	abs := math.Abs(v)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(dst, v, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, v, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// ParsePoint scans one canonical point object off the front of b into p
// and returns what follows it. ok is false — and p and rest unspecified —
// for anything but the canonical form, truncated input included; the
// caller then falls back to encoding/json, which decides whether the
// bytes are a point at all. An accepted object decodes exactly as
// Point.UnmarshalJSON decodes it.
func ParsePoint(b []byte, p *Point) (rest []byte, ok bool) {
	s := scanner{b: b}
	s.point(p)
	return s.b, !s.bad
}

// scanner consumes canonical wire JSON off the front of b. A mismatch
// sets bad and every later step is a no-op, so a caller chains the whole
// form and checks once.
type scanner struct {
	b   []byte
	bad bool
}

// point scans the members AppendPoint writes, in its order; the optional
// ones may each be absent.
func (s *scanner) point(p *Point) {
	*p = NewPoint()
	s.lit(`{"load_flits":`)
	s.number(&p.LoadFlits)
	s.lit(`,"model":`)
	s.number(&p.Model)
	s.flag(`,"model_saturated":`, &p.ModelSaturated)
	s.flag(`,"model_na":`, &p.ModelNA)
	s.field(`,"sim":`, &p.Sim)
	s.field(`,"sim_ci":`, &p.SimCI)
	s.flag(`,"sim_saturated":`, &p.SimSaturated)
	s.field(`,"sim_precision":`, &p.SimPrecision)
	s.field(`,"bound_max":`, &p.BoundMax)
	s.flag(`,"bound_unbounded":`, &p.BoundUnbounded)
	s.flag(`,"bound_na":`, &p.BoundNA)
	s.lit(`}`)
	p.restoreInf()
}

// restoreInf undoes the encoder's +Inf → null mapping where a flag kept
// it lossless: a saturated model and an unbounded bound.
func (p *Point) restoreInf() {
	if p.ModelSaturated && math.IsNaN(p.Model) {
		p.Model = math.Inf(1)
	}
	if p.BoundUnbounded && math.IsNaN(p.BoundMax) {
		p.BoundMax = math.Inf(1)
	}
}

// has consumes the literal lit if b starts with it.
func (s *scanner) has(lit string) bool {
	if s.bad || len(s.b) < len(lit) || string(s.b[:len(lit)]) != lit {
		return false
	}
	s.b = s.b[len(lit):]
	return true
}

// lit requires the literal lit.
func (s *scanner) lit(lit string) {
	if !s.has(lit) {
		s.bad = true
	}
}

// field scans an optional `,"name":<number|null>` member into *v.
func (s *scanner) field(name string, v *float64) {
	if s.has(name) {
		s.number(v)
	}
}

// flag scans an optional `,"name":<true|false>` member into *v.
func (s *scanner) flag(name string, v *bool) {
	if s.has(name) {
		if *v = s.has("true"); !*v {
			s.lit("false")
		}
	}
}

// number scans a JSON number, or null (NaN), into *v. The literal is
// checked against JSON's grammar before strconv sees it — ParseFloat
// alone would admit hex floats, underscores, "Inf" and a bare leading
// '.' — and a value float64 cannot hold is rejected, as encoding/json
// rejects it.
func (s *scanner) number(v *float64) {
	if s.has("null") {
		*v = math.NaN()
		return
	}
	n := numberLen(s.b)
	if s.bad || n == 0 {
		s.bad = true
		return
	}
	// A float64 encodes in at most 24 bytes, so the conversion below
	// stays on the stack for every number this repository writes.
	x, err := strconv.ParseFloat(string(s.b[:n]), 64)
	*v, s.b, s.bad = x, s.b[n:], err != nil
}

// int scans a JSON integer that fits an int.
func (s *scanner) int() int {
	n := numberLen(s.b)
	if s.bad || n == 0 {
		s.bad = true
		return 0
	}
	x, err := strconv.ParseInt(string(s.b[:n]), 10, strconv.IntSize)
	s.b, s.bad = s.b[n:], err != nil
	return int(x)
}

// numberLen returns the length of the JSON number literal at the front
// of b, 0 when there is none: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			return 0
		}
		i = k
	}
	return i
}

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// AppendItem appends the success line of a batched response,
// {"index":N,"point":{…}}\n — what json.Encoder emits for
// BatchItem{Index: N, Point: &p}. Error and heartbeat lines are rare and
// stay on encoding/json.
func AppendItem(dst []byte, index int, p Point) []byte {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(index), 10)
	dst = AppendPoint(append(dst, `,"point":`...), p)
	return append(dst, "}\n"...)
}

// parseItem scans one canonical success line — as AppendItem writes it,
// newline optional — into p and returns its index. Every other line
// (error, heartbeat, foreign formatting, a torn tail) is not ok and
// belongs to the json.Decoder fallback.
func parseItem(line []byte, p *Point) (index int, ok bool) {
	s := scanner{b: line}
	s.lit(`{"index":`)
	index = s.int()
	s.lit(`,"point":`)
	s.point(p)
	s.lit(`}`)
	return index, !s.bad && (len(s.b) == 0 || string(s.b) == "\n")
}
