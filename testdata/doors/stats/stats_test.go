package stats

import "testing"

func TestBatchMeansN(t *testing.T) {
	var b BatchMeans
	b.Add(2)
	if b.N() != 1 {
		t.Fatal(b.N())
	}
}

func TestDefaults(t *testing.T) {
	if Levels != 3 || Default.N() != 0 || (Summary{}).Mean != 0 {
		t.Fatal("defaults")
	}
}
