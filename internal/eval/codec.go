package eval

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/sim"
)

// This file is the Point codec: the one place the cell's wire JSON is
// written (AppendPoint) and the one place its canonical form is scanned
// (ParsePoint), shared by the serving layer's NDJSON item lines and the
// store's record lines. Point's field names appear here once for each
// direction and nowhere else. The Scenario codec below it (AppendScenario,
// ParseScenario) does the same for the question a /v1/eval request asks.
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
		*v = s.bool()
	}
}

// bool scans true or false.
func (s *scanner) bool() bool {
	v := s.has("true")
	if !v {
		s.lit("false")
	}
	return v
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
	s.float(v)
}

// float scans a JSON number, not null, into *v (see number).
func (s *scanner) float(v *float64) {
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

// uint scans a JSON integer that fits a uint64.
func (s *scanner) uint() uint64 {
	n := numberLen(s.b)
	if s.bad || n == 0 {
		s.bad = true
		return 0
	}
	x, err := strconv.ParseUint(string(s.b[:n]), 10, 64)
	s.b, s.bad = s.b[n:], err != nil
	return x
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

// AppendItem appends the success line of a part response,
// {"index":N,"point":{…}}\n — what json.Encoder emits for
// PartItem{Index: N, Point: &p}. Error and heartbeat lines are rare and
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

// AppendScenario appends sc's wire JSON to dst, byte for byte what
// json.Marshal(sc) writes (pinned by FuzzScenarioCodec). A canonical
// scenario — a finite load and precision, the default workload, and no
// string that encoding/json would escape — is written here; any other
// goes through encoding/json on the reflective wire struct, which also
// refuses the non-finite numbers JSON cannot carry.
func AppendScenario(dst []byte, sc *Scenario) ([]byte, error) {
	pol := sc.Policy.String()
	if !finite(sc.Load.Value) || !finite(sc.Budget.Precision) || !sc.Workload.IsDefault() ||
		!plain(sc.Topology.Family) || !plain(sc.Variant.Name) || !plain(pol) {
		b, err := json.Marshal(sc.wire())
		return append(dst, b...), err
	}
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(sc.Index), 10)
	dst = appendPlain(append(dst, `,"topology":{"family":`...), sc.Topology.Family)
	dst = strconv.AppendInt(append(dst, `,"size":`...), int64(sc.Topology.Size), 10)
	if sc.Topology.K != 0 {
		dst = strconv.AppendInt(append(dst, `,"k":`...), int64(sc.Topology.K), 10)
	}
	dst = strconv.AppendInt(append(dst, `},"msg_flits":`...), int64(sc.MsgFlits), 10)
	dst = appendPlain(append(dst, `,"policy":`...), pol) // String never names a policy ""
	dst = append(dst, `,"load":{`...)
	if sc.Load.Frac {
		dst = append(dst, `"frac":true,`...)
	}
	dst = appendNumber(append(dst, `"value":`...), sc.Load.Value)
	dst = append(dst, '}')
	if v := &sc.Variant; *v != (Variant{}) {
		// Every member may be absent, so each is written after a comma
		// and the first comma then becomes the brace.
		dst = append(dst, `,"variant":`...)
		open := len(dst)
		if v.Name != "" {
			dst = appendPlain(append(dst, `,"name":`...), v.Name)
		}
		dst = appendFlag(dst, `,"no_blocking_correction":true`, v.NoBlockingCorrection)
		dst = appendFlag(dst, `,"single_server_groups":true`, v.SingleServerGroups)
		dst = appendFlag(dst, `,"no_pair_rate_correction":true`, v.NoPairRateCorrection)
		dst = appendFlag(dst, `,"with_sim":true`, v.WithSim)
		dst[open] = '{'
		dst = append(dst, '}')
	}
	dst = strconv.AppendInt(append(dst, `,"load_index":`...), int64(sc.LoadIndex), 10)
	dst = appendFlag(dst, `,"with_sim":true`, sc.WithSim)
	if b := &sc.Budget; *b != (Budget{}) {
		dst = strconv.AppendInt(append(dst, `,"budget":{"warmup":`...), int64(b.Warmup), 10)
		dst = strconv.AppendInt(append(dst, `,"measure":`...), int64(b.Measure), 10)
		dst = strconv.AppendUint(append(dst, `,"seed":`...), b.Seed, 10)
		if b.DrainLimit != 0 {
			dst = strconv.AppendInt(append(dst, `,"drain_limit":`...), int64(b.DrainLimit), 10)
		}
		if b.Precision != 0 {
			dst = appendNumber(append(dst, `,"precision":`...), b.Precision)
		}
		if b.Replicas != 0 {
			dst = strconv.AppendInt(append(dst, `,"replicas":`...), int64(b.Replicas), 10)
		}
		dst = append(dst, '}')
	}
	dst = appendFlag(dst, `,"with_bounds":true`, sc.WithBounds)
	return append(dst, '}'), nil
}

// appendFlag appends member, a boolean member written as true, when set:
// what omitempty writes.
func appendFlag(dst []byte, member string, set bool) []byte {
	if set {
		dst = append(dst, member...)
	}
	return dst
}

// plain reports whether encoding/json writes s as it is between its
// quotes: printable ASCII, without the quote, the backslash and the
// three characters it escapes for HTML (<, >, &).
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendPlain appends a plain string (see plain) as a JSON string.
func appendPlain(dst []byte, s string) []byte {
	return append(append(append(dst, '"'), s...), '"')
}

// ParseScenario scans b, which must hold one canonical scenario object
// and nothing else, into sc. The canonical form is what AppendScenario
// writes for a canonical scenario: its keys in its order, no whitespace,
// no workload. ok is false, and sc left as it was, for anything else;
// the caller then falls back to encoding/json, which decides whether the
// bytes are a scenario at all. An accepted object decodes exactly as
// encoding/json decodes it. A topology family named by one of the
// Family* constants shares the constant's bytes, so only a variant's
// name costs an allocation.
func ParseScenario(b []byte, sc *Scenario) (ok bool) {
	var out Scenario
	s := scanner{b: b}
	s.lit(`{"index":`)
	out.Index = s.int()
	s.lit(`,"topology":{"family":`)
	out.Topology.Family = family(s.str())
	s.lit(`,"size":`)
	out.Topology.Size = s.int()
	if s.has(`,"k":`) {
		out.Topology.K = s.int()
	}
	s.lit(`},"msg_flits":`)
	out.MsgFlits = s.int()
	s.lit(`,"policy":`)
	out.Policy = s.policy()
	s.lit(`,"load":{`)
	if s.has(`"frac":`) {
		out.Load.Frac = s.bool()
		s.lit(`,`)
	}
	s.lit(`"value":`)
	s.float(&out.Load.Value)
	s.lit(`}`)
	if s.has(`,"variant":{`) {
		v := &out.Variant
		first := true
		if s.key(&first, `"name":`) {
			v.Name = string(s.str())
		}
		s.member(&first, `"no_blocking_correction":`, &v.NoBlockingCorrection)
		s.member(&first, `"single_server_groups":`, &v.SingleServerGroups)
		s.member(&first, `"no_pair_rate_correction":`, &v.NoPairRateCorrection)
		s.member(&first, `"with_sim":`, &v.WithSim)
		s.lit(`}`)
	}
	s.lit(`,"load_index":`)
	out.LoadIndex = s.int()
	s.flag(`,"with_sim":`, &out.WithSim)
	if s.has(`,"budget":{"warmup":`) {
		bu := &out.Budget
		bu.Warmup = s.int()
		s.lit(`,"measure":`)
		bu.Measure = s.int()
		s.lit(`,"seed":`)
		bu.Seed = s.uint()
		if s.has(`,"drain_limit":`) {
			bu.DrainLimit = s.int()
		}
		if s.has(`,"precision":`) {
			s.float(&bu.Precision)
		}
		if s.has(`,"replicas":`) {
			bu.Replicas = s.int()
		}
		s.lit(`}`)
	}
	s.flag(`,"with_bounds":`, &out.WithBounds)
	s.lit(`}`)
	if s.bad || len(s.b) != 0 {
		return false
	}
	*sc = out
	return true
}

// family returns the Family* constant named by b, or b as a new string.
func family(b []byte) string {
	switch string(b) {
	case FamilyBFT:
		return FamilyBFT
	case FamilyHypercube:
		return FamilyHypercube
	case FamilyTorus:
		return FamilyTorus
	}
	return string(b)
}

// policy scans a policy's name (sim.UpLinkPolicy.String). A name
// sim.ParsePolicy would refuse, or the empty name it reads as the
// default, is not canonical: encoding/json decides it.
func (s *scanner) policy() sim.UpLinkPolicy {
	name := s.str()
	for _, p := range [...]sim.UpLinkPolicy{sim.PairQueue, sim.RandomFixed} {
		if string(name) == p.String() {
			return p
		}
	}
	s.bad = true
	return 0
}

// str scans a JSON string of printable ASCII without escapes — every
// string the canonical form holds — and returns its bytes, which alias b.
func (s *scanner) str() []byte {
	if !s.has(`"`) {
		s.bad = true
		return nil
	}
	for i := 0; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			v := s.b[:i]
			s.b = s.b[i+1:]
			return v
		case c < 0x20 || c > 0x7e || c == '\\':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// key consumes an optional member's `"name":` — after a comma unless it
// is the first member of its object, which first records.
func (s *scanner) key(first *bool, name string) bool {
	b := s.b
	if !*first {
		if len(b) == 0 || b[0] != ',' {
			return false
		}
		b = b[1:]
	}
	if s.bad || len(b) < len(name) || string(b[:len(name)]) != name {
		return false
	}
	s.b, *first = b[len(name):], false
	return true
}

// member scans an optional boolean member of an object whose members
// are all optional (see key).
func (s *scanner) member(first *bool, name string, v *bool) {
	if s.key(first, name) {
		*v = s.bool()
	}
}
