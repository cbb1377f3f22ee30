package cliutil

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestMessagePrintsTheNameOnce: a failure is reported as "name: err",
// and an error its own package already prefixed with the binary's name
// is not prefixed again.
func TestMessagePrintsTheNameOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"sweep", errors.New(`sweep: unknown builtin spec "nope"`), `sweep: unknown builtin spec "nope"`},
		{"plan", fmt.Errorf("plan: space: %w", errors.New("sweep: spec has no topologies")), "plan: space: sweep: spec has no topologies"},
		{"plan", errors.New("sweep: spec has no topologies"), "plan: sweep: spec has no topologies"},
		{"sweep", errors.New("no -spec given"), "sweep: no -spec given"},
		{"sweep", errors.New("sweeping: not the name"), "sweep: sweeping: not the name"},
	} {
		if got := message(tc.name, tc.err); got != tc.want {
			t.Errorf("message(%q, %q) = %q, want %q", tc.name, tc.err, got, tc.want)
		}
	}
}

func TestParseStrings(t *testing.T) {
	got, err := ParseStrings(" hosta:8713, hostb:8713 ,")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"hosta:8713", "hostb:8713"}) {
		t.Errorf("got %v", got)
	}
	if _, err := ParseStrings(" , "); err == nil {
		t.Error("accepted empty list")
	}
}

func TestBudget(t *testing.T) {
	q := Budget(false, 9)
	f := Budget(true, 9)
	if q.Seed != 9 || f.Seed != 9 {
		t.Error("seed not applied")
	}
	if f.Measure <= q.Measure {
		t.Error("full budget should be larger")
	}
}
