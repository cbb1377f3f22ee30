package cliutil

import (
	"reflect"
	"testing"
)

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
