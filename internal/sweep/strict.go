package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/workload"
)

// DecodeStrict decodes JSON into v (a pointer to a struct), rejecting
// unknown fields. Where encoding/json reports the bare `json: unknown
// field "msgflits"`, DecodeStrict names the field, suggests the nearest
// known one ("did you mean \"msg_flits\"?"), and lists the valid names —
// a typo in a hand-written spec fails with an actionable error instead
// of a silently ignored axis. The known-field set is collected
// recursively from v's struct tags, so nested sections (loads, budget,
// space, …) are covered by the same call.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if field, ok := unknownField(err); ok {
			return namedFieldError(field, jsonFields(reflect.TypeOf(v)))
		}
		return err
	}
	// A second top-level JSON value is a malformed spec, not trailing
	// whitespace; Decode alone would silently stop at the first.
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON document")
	}
	return nil
}

// unknownField extracts the field name from encoding/json's
// DisallowUnknownFields error, which is only exposed as formatted text.
func unknownField(err error) (string, bool) {
	const marker = `json: unknown field "`
	msg := err.Error()
	i := strings.Index(msg, marker)
	if i < 0 {
		return "", false
	}
	rest := msg[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// namedFieldError builds the field-naming error: offending name, nearest
// known field when one is plausibly close, and the full known set.
func namedFieldError(field string, known []string) error {
	sort.Strings(known)
	msg := fmt.Sprintf("unknown field %q", field)
	if best, d := workload.Nearest(field, known); best != "" && d <= (len(field)+2)/2 {
		msg += fmt.Sprintf(" (did you mean %q?)", best)
	}
	return fmt.Errorf("%s; known fields: %s", msg, strings.Join(known, ", "))
}

// jsonFields collects the JSON field names reachable from t's struct
// tags, recursing through nested structs, pointers, slices and maps.
func jsonFields(t reflect.Type) []string {
	seen := make(map[reflect.Type]bool)
	names := make(map[string]bool)
	var walk func(reflect.Type)
	walk = func(t reflect.Type) {
		for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice ||
			t.Kind() == reflect.Array || t.Kind() == reflect.Map {
			t = t.Elem()
		}
		if t.Kind() != reflect.Struct || seen[t] {
			return
		}
		seen[t] = true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch tag {
			case "-":
				continue
			case "":
				tag = f.Name
			}
			names[tag] = true
			walk(f.Type)
		}
	}
	walk(t)
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	return out
}
