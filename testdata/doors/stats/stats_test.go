package stats

import "testing"

func TestBatchMeansN(t *testing.T) {
	var b BatchMeans
	b.Add(2)
	if b.N() != 1 {
		t.Fatal(b.N())
	}
}
