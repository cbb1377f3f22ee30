package eval

import (
	"fmt"
	"strconv"
	"strings"
)

// ParsedKey holds the scenario coordinates recovered from a cache key by
// ParseKey. It mirrors the fields Scenario.Key encodes — and only those:
// Index, LoadIndex and the variant's cosmetic name never enter a key, so
// they cannot be recovered, and Budget.Seed holds the *derived* per-cell
// seed (Scenario.Seed()), not the spec's base seed.
type ParsedKey struct {
	// Topology, MsgFlits, Policy and Load identify the cell. Policy is
	// the policy's String() form ("pairqueue", "randomfixed", …) because
	// the key stores the name, not the enum value.
	Topology Topology
	MsgFlits int
	Policy   string
	Load     Load
	// Variant carries the three ablation toggles (Name is not encoded).
	Variant Variant
	// WithSim and Budget describe the execution. Budget is meaningful
	// only when WithSim is true; Budget.Seed is the derived seed.
	WithSim bool
	Budget  Budget
	// Workload is the workload spec's canonical form ("" for the default
	// steady uniform Poisson workload).
	Workload string
	// WithBounds marks bound-carrying cache lines.
	WithBounds bool
}

// CutSalt splits a stored cache line into the backend salt it was
// written under ("backends=<names>|") and the Scenario.Key behind it; a
// line without one is the key. Salted lines are what a custom backend
// list writes (sweep.WithBackends) and what older versions wrote for a
// fleet's cells ("backends=remote(<shards>)|") and for the built-in list
// spelled out: the same evaluated scenario may sit in a store under
// several of them and is one measurement under all — this is how the
// calibration layer, the one reader of stored lines, tells. A "backends="
// prefix with no '|' terminator is not a salt.
func CutSalt(line string) (salt, key string) {
	if strings.HasPrefix(line, "backends=") {
		if i := strings.IndexByte(line, '|'); i >= 0 {
			return line[:i+1], line[i+1:]
		}
	}
	return "", line
}

// ParseKey inverts Scenario.Key: it parses a key back into the scenario
// coordinates that produced it. This is the primitive the calibration
// layer mines the persistent store with (a stored line's salt, if any,
// is cut off first — see CutSalt).
//
// Malformed input returns an error, never panics: store segments travel
// between machines and across versions, so ParseKey treats its input as
// untrusted. Keys written by versions that hashed the preimage are
// rejected like any other non-key string.
func ParseKey(key string) (ParsedKey, error) {
	var p ParsedKey
	tp := &tokenParser{toks: strings.Split(key, " "), key: key}

	var err error
	if p.Topology.Family, err = tp.str("family"); err != nil {
		return p, err
	}
	if p.Topology.Size, err = tp.num("size"); err != nil {
		return p, err
	}
	if p.Topology.K, err = tp.num("k"); err != nil {
		return p, err
	}
	if p.MsgFlits, err = tp.num("flits"); err != nil {
		return p, err
	}
	if p.Policy, err = tp.str("policy"); err != nil {
		return p, err
	}
	if p.Load.Frac, err = tp.boolean("frac"); err != nil {
		return p, err
	}
	if p.Load.Value, err = tp.float("load"); err != nil {
		return p, err
	}
	if v, ok := tp.optional("variant"); ok {
		if p.Variant, err = parseVariantToggles(v); err != nil {
			return p, fmt.Errorf("eval: key %q: %w", key, err)
		}
	}
	if p.WithSim, err = tp.boolean("sim"); err != nil {
		return p, err
	}
	if p.WithSim {
		if p.Budget.Warmup, err = tp.num("warmup"); err != nil {
			return p, err
		}
		if p.Budget.Measure, err = tp.num("measure"); err != nil {
			return p, err
		}
		seed, err := tp.uintVal("seed")
		if err != nil {
			return p, err
		}
		p.Budget.Seed = seed
		if v, ok := tp.optional("drain"); ok {
			if p.Budget.DrainLimit, err = parseInt(v, "drain"); err != nil {
				return p, fmt.Errorf("eval: key %q: %w", key, err)
			}
		}
		if v, ok := tp.optional("prec"); ok {
			if p.Budget.Precision, err = parseHexFloat(v, "prec"); err != nil {
				return p, fmt.Errorf("eval: key %q: %w", key, err)
			}
		}
		if v, ok := tp.optional("reps"); ok {
			if p.Budget.Replicas, err = parseInt(v, "reps"); err != nil {
				return p, fmt.Errorf("eval: key %q: %w", key, err)
			}
		}
	}
	// The workload canonical form may itself contain spaces (trace paths
	// are embedded verbatim), so it swallows every remaining token except
	// a trailing "bounds=true".
	if v, ok := tp.optional("workload"); ok {
		wk := []string{v}
		for len(tp.toks) > 0 && tp.toks[0] != "bounds=true" {
			wk = append(wk, tp.toks[0])
			tp.toks = tp.toks[1:]
		}
		p.Workload = strings.Join(wk, " ")
	}
	if v, ok := tp.optional("bounds"); ok {
		if v != "true" {
			return p, fmt.Errorf("eval: key %q: bounds=%q (want true)", key, v)
		}
		p.WithBounds = true
	}
	if len(tp.toks) > 0 {
		return p, fmt.Errorf("eval: key %q has trailing tokens %q", key, tp.toks)
	}
	return p, nil
}

// tokenParser consumes the space-separated "name=value" tokens of a key
// in their canonical order.
type tokenParser struct {
	toks []string
	key  string
}

// next consumes the next token, requiring field name.
func (t *tokenParser) next(name string) (string, error) {
	if len(t.toks) == 0 {
		return "", fmt.Errorf("eval: key %q truncated before %q", t.key, name)
	}
	tok := t.toks[0]
	val, ok := strings.CutPrefix(tok, name+"=")
	if !ok {
		return "", fmt.Errorf("eval: key %q: want field %q, have token %q", t.key, name, tok)
	}
	t.toks = t.toks[1:]
	return val, nil
}

// optional consumes the next token only if it carries field name.
func (t *tokenParser) optional(name string) (string, bool) {
	if len(t.toks) == 0 {
		return "", false
	}
	val, ok := strings.CutPrefix(t.toks[0], name+"=")
	if !ok {
		return "", false
	}
	t.toks = t.toks[1:]
	return val, true
}

func (t *tokenParser) str(name string) (string, error) {
	v, err := t.next(name)
	if err != nil {
		return "", err
	}
	if v == "" {
		return "", fmt.Errorf("eval: key %q: empty %q", t.key, name)
	}
	return v, nil
}

func (t *tokenParser) num(name string) (int, error) {
	v, err := t.next(name)
	if err != nil {
		return 0, err
	}
	n, err := parseInt(v, name)
	if err != nil {
		return 0, fmt.Errorf("eval: key %q: %w", t.key, err)
	}
	return n, nil
}

func (t *tokenParser) uintVal(name string) (uint64, error) {
	v, err := t.next(name)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("eval: key %q: %s=%q: %v", t.key, name, v, err)
	}
	return n, nil
}

func (t *tokenParser) boolean(name string) (bool, error) {
	v, err := t.next(name)
	if err != nil {
		return false, err
	}
	switch v {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("eval: key %q: %s=%q (want bool)", t.key, name, v)
}

func (t *tokenParser) float(name string) (float64, error) {
	v, err := t.next(name)
	if err != nil {
		return 0, err
	}
	f, err := parseHexFloat(v, name)
	if err != nil {
		return 0, fmt.Errorf("eval: key %q: %w", t.key, err)
	}
	return f, nil
}

func parseInt(v, name string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%s=%q: %v", name, v, err)
	}
	return n, nil
}

// parseHexFloat parses the 'x' strconv format Key emits. Infinities and
// NaN are rejected: Key never produces them for the fields it encodes.
func parseHexFloat(v, name string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("%s=%q: %v", name, v, err)
	}
	if f != f || f > 1e308 || f < -1e308 {
		return 0, fmt.Errorf("%s=%q: not a finite value", name, v)
	}
	return f, nil
}

// parseVariantToggles splits the concatenated FormatBool triple Key
// writes for non-base variants ("truefalsetrue" and friends).
func parseVariantToggles(v string) (Variant, error) {
	var out [3]bool
	rest := v
	for i := range out {
		switch {
		case strings.HasPrefix(rest, "true"):
			out[i] = true
			rest = rest[len("true"):]
		case strings.HasPrefix(rest, "false"):
			rest = rest[len("false"):]
		default:
			return Variant{}, fmt.Errorf("variant=%q: not three concatenated bools", v)
		}
	}
	if rest != "" {
		return Variant{}, fmt.Errorf("variant=%q: trailing %q", v, rest)
	}
	vr := Variant{
		NoBlockingCorrection: out[0],
		SingleServerGroups:   out[1],
		NoPairRateCorrection: out[2],
	}
	if vr.IsBase() {
		// Key omits the token for base variants, so an explicit all-false
		// triple cannot come from Key.
		return Variant{}, fmt.Errorf("variant=%q: base variant is never encoded", v)
	}
	return vr, nil
}
