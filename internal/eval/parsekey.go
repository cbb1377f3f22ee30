package eval

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// ParseKey inverts Scenario.Key: it returns the scenario coordinates a
// key encodes and the workload's canonical form ("" for the default
// workload). It is the primitive the calibration layer mines the
// persistent store with.
//
// The grammar is appendKey's and nothing else: ParseKey accepts key
// exactly when appendKey writes it back byte for byte, so reordered,
// repeated or unknown fields, non-canonical numbers and the hashed keys
// of older versions are all errors, never panics — store segments travel
// between machines and across versions, so the input is untrusted. What
// a key does not carry comes back zero: Index, LoadIndex, the variant's
// Name and WithSim, and Workload (returned as its canonical string);
// Budget.Seed holds the derived per-cell seed (Scenario.Seed), not the
// spec's base seed.
func ParseKey(key string) (sc Scenario, workload string, err error) {
	rest, bounds := strings.CutSuffix(key, " bounds=true")
	sc.WithBounds = bounds
	rest, workload, _ = strings.Cut(rest, " workload=")
	for rest != "" {
		var tok string
		tok, rest, _ = strings.Cut(rest, " ")
		name, val, _ := strings.Cut(tok, "=")
		switch name {
		case "family":
			sc.Topology.Family = val
		case "size":
			sc.Topology.Size, err = strconv.Atoi(val)
		case "k":
			sc.Topology.K, err = strconv.Atoi(val)
		case "flits":
			sc.MsgFlits, err = strconv.Atoi(val)
		case "policy":
			sc.Policy, err = sim.ParsePolicy(val)
		case "frac":
			sc.Load.Frac, err = strconv.ParseBool(val)
		case "load":
			sc.Load.Value, err = parseFinite(val)
		case "variant":
			// Three concatenated bools; whatever is left over fails the
			// re-encoding below.
			v := &sc.Variant
			for _, t := range []*bool{&v.NoBlockingCorrection, &v.SingleServerGroups, &v.NoPairRateCorrection} {
				if val, *t = strings.CutPrefix(val, "true"); !*t {
					val = strings.TrimPrefix(val, "false")
				}
			}
		case "sim":
			sc.WithSim, err = strconv.ParseBool(val)
		case "warmup":
			sc.Budget.Warmup, err = strconv.Atoi(val)
		case "measure":
			sc.Budget.Measure, err = strconv.Atoi(val)
		case "seed":
			sc.Budget.Seed, err = strconv.ParseUint(val, 10, 64)
		case "drain":
			sc.Budget.DrainLimit, err = strconv.Atoi(val)
		case "prec":
			sc.Budget.Precision, err = parseFinite(val)
		case "reps":
			sc.Budget.Replicas, err = strconv.Atoi(val)
		default:
			err = errors.New("unknown field")
		}
		if err != nil {
			return Scenario{}, "", fmt.Errorf("eval: key %q: %s: %w", key, tok, err)
		}
	}
	if sc.Topology.Family == "" { // appendKey would write "family=" back
		return Scenario{}, "", fmt.Errorf("eval: key %q: no family", key)
	}
	var buf [256]byte
	if string(sc.appendKey(buf[:0], workload, false)) != key {
		return Scenario{}, "", fmt.Errorf("eval: key %q is not a Scenario.Key", key)
	}
	return sc, workload, nil
}

// parseFinite parses a float field. No cell has an infinite or NaN load
// or precision, but appendKey would write one back verbatim, so they are
// refused here.
func parseFinite(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err == nil && (math.IsInf(f, 0) || math.IsNaN(f)) {
		err = errors.New("not finite")
	}
	return f, err
}
