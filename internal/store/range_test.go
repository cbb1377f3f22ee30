package store

import (
	"sync"

	"repro/internal/eval"
	"testing"
)

func TestRangeVisitsEveryCell(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	want := map[string]float64{}
	for i := 0; i < 50; i++ {
		k := cellKey(i)
		s.Put(k, pt(float64(i), float64(i)*2, float64(i)*2+1))
		want[k] = float64(i)
	}
	got := map[string]float64{}
	s.Range(func(key string, p eval.Point) bool {
		got[key] = p.LoadFlits
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range saw %d cells, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("cell %q: LoadFlits %v, want %v", k, got[k], v)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Put(cellKey(i), pt(1, 2, 3))
	}
	n := 0
	s.Range(func(string, eval.Point) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early-stopped Range made %d calls, want 5", n)
	}
}

// TestRangeReentrant checks the documented no-lock-during-callback
// contract: the callback may call back into the store.
func TestRangeReentrant(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	derived := map[string]string{cellKey(0): cellKey(2), cellKey(1): cellKey(3)}
	s.Put(cellKey(0), pt(1, 2, 3))
	s.Put(cellKey(1), pt(4, 5, 6))
	s.Range(func(key string, p eval.Point) bool {
		if _, ok := s.Get(key); !ok {
			t.Errorf("re-entrant Get(%q) missed", key)
		}
		s.Put(derived[key], p)
		return true
	})
	if s.Len() != 4 {
		t.Fatalf("Len = %d after re-entrant puts, want 4", s.Len())
	}
}

// TestRangeConcurrent races Range against concurrent Put and Prune; the
// race detector guards the snapshot discipline, and the assertions check
// that every visited cell is internally consistent (a value some Put
// actually wrote, never a torn mix).
func TestRangeConcurrent(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 64; i++ {
		s.Put(cellKey(i), pt(float64(i), float64(i), float64(i)))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: keeps rewriting cells with self-consistent triples
		defer wg.Done()
		for v := 0; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			f := float64(v)
			s.Put(cellKey(v%64), pt(f, f, f))
		}
	}()
	wg.Add(1)
	go func() { // pruner: repeatedly squeezes the store
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Prune(1 << 12); err != nil {
				t.Errorf("Prune: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 50; i++ {
		n := 0
		s.Range(func(key string, p eval.Point) bool {
			n++
			if p.LoadFlits != p.Model || p.Model != p.Sim {
				t.Errorf("torn cell %q: %v/%v/%v", key, p.LoadFlits, p.Model, p.Sim)
			}
			return true
		})
		_ = n
	}
	close(stop)
	wg.Wait()
}
