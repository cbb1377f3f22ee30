package store

import (
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/eval"
)

// FuzzStoreKeys: a store holds its cells in a sweep.Cache, which splits
// every key it is given into a curve key and a token (eval.SplitKey) and
// joins it back (eval.AppendJoinKey) for Range — and a segment's keys are
// untrusted input. For any string SplitKey accepts, AppendJoinKey writes
// it back byte for byte, and SplitKey splits its bytes alike. Any
// valid-UTF-8 key SplitKey accepts, Put into a Store, comes back byte for
// byte from Range and Get after Close and Open, and again after Compact
// and Open; any key it refuses is not a cell's key, and the Store keeps
// nothing under it.
func FuzzStoreKeys(f *testing.F) {
	const grid = "family=bft size=64 k=0 flits=16 policy=pairqueue frac=true load=0x1.999999999999ap-04 sim=true warmup=1000 measure=5000 seed=42"
	for _, key := range []string{
		grid,
		"backends=x|" + grid,
		strings.Replace(grid, "load=0x1.999999999999ap-04", "load=0.1", 1),
		strings.Replace(grid, "sim=true", "load=0x1p-01 sim=true", 1),
		strings.TrimSuffix(grid, " seed=42"),
	} {
		f.Add(key)
	}
	p := eval.Point{LoadFlits: 0.1, Model: 42.5, Sim: math.NaN(), SimCI: math.NaN(), SimPrecision: math.NaN(), BoundMax: math.Inf(1), BoundUnbounded: true}
	f.Fuzz(func(t *testing.T, key string) {
		curve, tok, ok := eval.SplitKey(nil, key)
		if ok {
			if back := eval.AppendJoinKey(nil, string(curve), tok); string(back) != key {
				t.Fatalf("SplitKey(%q) = %q, %+v, which joins to %q", key, curve, tok, back)
			}
		}
		// Replay splits the key where it lies in the record's bytes.
		if c, tk, k := eval.SplitKey(nil, []byte(key)); k != ok || string(c) != string(curve) || tk != tok {
			t.Fatalf("SplitKey(%q) as bytes = %q, %+v, %v; as a string %q, %+v, %v", key, c, tk, k, curve, tok, ok)
		}
		// A record's key is JSON text: encoding/json writes invalid UTF-8
		// as U+FFFD, and replay drops a record with an empty key.
		if key == "" || !utf8.ValidString(key) {
			return
		}
		check := func(when string, s *Store) {
			t.Helper()
			var keys []string
			s.Range(func(k string, _ eval.Point) bool {
				keys = append(keys, k)
				return true
			})
			if !ok {
				if _, hit := s.Get(key); len(keys) != 0 || hit {
					t.Fatalf("%s: Range gives %q and Get hits %v for a key SplitKey refuses", when, keys, hit)
				}
				return
			}
			if len(keys) != 1 || keys[0] != key {
				t.Fatalf("%s: Range gives %q, want [%q]", when, keys, key)
			}
			if got, ok := s.Get(key); !ok || !eval.Same(got, p) {
				t.Fatalf("%s: Get(%q) = %+v, %v", when, key, got, ok)
			}
		}
		dir := t.TempDir()
		s := mustOpen(t, dir)
		s.Put(key, p)
		check("put", s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, dir)
		check("reopened", s)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, dir)
		defer s.Close()
		check("compacted", s)
	})
}
