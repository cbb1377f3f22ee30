// Package stats plants a test-only method whose name a method that
// programs call shares, BatchMeans.N beside Stream.N, and a constant, a
// variable and a type that only its test names, beside a constant that
// the program names.
package stats

// Confidence is the level the program prints.
const Confidence = 0.95

// Levels, Default and Summary are named by this package's test only.
const Levels = 3

var Default Stream

type Summary struct{ Mean float64 }

type Stream struct{ n int }

func (s *Stream) Add(float64) { s.n++ }

func (s *Stream) N() int { return s.n }

type BatchMeans struct {
	n    int
	mean float64
}

func (b *BatchMeans) Add(x float64) {
	b.n++
	b.mean += (x - b.mean) / float64(b.n)
}

func (b *BatchMeans) Mean() float64 { return b.mean }

// N is called by this package's test only.
func (b *BatchMeans) N() int { return b.n }
