package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// contractSpec is a small simulation-backed grid: six cells, so three
// shards at one cell per range all take part.
func contractSpec() sweep.Spec {
	return sweep.Spec{
		Name:       "contract",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{16}}},
		MsgFlits:   []int{4, 8, 16},
		Loads:      sweep.LoadSpec{Fracs: []float64{0.3, 0.6}},
		WithSim:    true,
		Budget:     sweep.Budget{Warmup: 300, Measure: 2000, Seed: 3},
	}
}

// slowSpec is sized so a sweep is still mid-flight when its consumer
// cancels.
func slowSpec() sweep.Spec {
	return sweep.Spec{
		Name:       "slow",
		Topologies: []sweep.TopologySpec{{Family: sweep.FamilyBFT, Sizes: []int{64}}},
		MsgFlits:   []int{8, 16},
		Loads:      sweep.LoadSpec{Fracs: []float64{0.2, 0.4, 0.6, 0.8}},
		WithSim:    true,
		Budget:     sweep.Budget{Warmup: 10000, Measure: 150000, Seed: 5},
	}
}

// engine is one way of building the grid engine for the contract: the
// Runner and a hook that settles the goroutines its transport keeps
// between requests.
type engine struct {
	*sweep.Runner
	settle func()
}

// rowsJSON renders rows as index-sorted JSON lines: Row's wire form is the
// comparison that treats NaN as equal to NaN.
func rowsJSON(t *testing.T, rows []sweep.Row) []string {
	t.Helper()
	sorted := append([]sweep.Row(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Scenario.Index < sorted[j].Scenario.Index })
	out := make([]string, len(sorted))
	for i, row := range sorted {
		data, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(data)
	}
	return out
}

// drain collects a stream, failing the test if it does not close in time.
func drain(t *testing.T, ch <-chan sweep.PointResult, timeout time.Duration) (rows []sweep.Row, last error) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case pr, ok := <-ch:
			if !ok {
				return rows, last
			}
			if last != nil {
				t.Errorf("stream went on after its error element: %+v", pr)
			}
			if last = pr.Err; last == nil {
				rows = append(rows, pr.Row)
			}
		case <-deadline:
			t.Fatalf("stream did not close within %v (%d rows so far)", timeout, len(rows))
		}
	}
}

// TestEngineContract is the one engine's behaviour, asserted against both
// of its schedulers: the local pool, and the dispatcher's ranges over
// three shards. Whatever computes the cold cells, everything around them
// — rows, hit and miss accounting, cache lines, progress events, trace
// spans, failure and cancellation — is the same code and must read the
// same.
func TestEngineContract(t *testing.T) {
	engines := []struct {
		name string
		new  func(t *testing.T) engine
	}{
		{"local", func(t *testing.T) engine {
			return engine{Runner: sweep.NewRunner(sweep.WithWorkers(2)), settle: func() {}}
		}},
		{"fleet", func(t *testing.T) engine {
			addrs, _ := newFleet(t, 3)
			tr := &http.Transport{}
			t.Cleanup(tr.CloseIdleConnections)
			d := newDispatcher(t, addrs, WithBatch(1), WithHTTPClient(&http.Client{Transport: tr}))
			return engine{Runner: d.Runner, settle: tr.CloseIdleConnections}
		}},
	}
	for _, ec := range engines {
		t.Run(ec.name, func(t *testing.T) {
			ctx := context.Background()
			spec := contractSpec()
			scens, err := sweep.Expand(spec)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]string, len(scens))
			for i := range scens {
				keys[i] = scens[i].Key()
			}

			t.Run("cold then warm", func(t *testing.T) {
				e := ec.new(t)
				e.Cache = sweep.NewCache()
				var events []sweep.Event
				e.Progress = func(ev sweep.Event) { events = append(events, ev) }
				cold, err := e.Run(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				n := len(keys)
				if len(cold.Rows) != n || cold.CacheHits != 0 || cold.CacheMisses != n {
					t.Fatalf("cold pass: %d rows, %d hits, %d misses; want %d, 0, %d", len(cold.Rows), cold.CacheHits, cold.CacheMisses, n, n)
				}

				var buf bytes.Buffer
				tracer := obs.NewTracer(&buf)
				coldEvents := events
				events = nil
				warm, err := e.Run(obs.WithTracer(ctx, tracer), spec)
				if err != nil {
					t.Fatal(err)
				}
				if warm.CacheHits != n || warm.CacheMisses != 0 {
					t.Errorf("warm pass: %d hits, %d misses; want %d, 0", warm.CacheHits, warm.CacheMisses, n)
				}
				for i, row := range warm.Rows {
					if !row.Cached {
						t.Errorf("warm row %d not flagged cached", i)
					}
					row.Cached = false
					warm.Rows[i] = row
				}
				if got, want := rowsJSON(t, warm.Rows), rowsJSON(t, cold.Rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("warm rows differ from the cold pass's:\n%s\n---\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
				if hits, fresh := e.Counts(); hits != int64(n) || fresh != int64(n) {
					t.Errorf("lifetime counts after a cold and a warm pass: %d hits, %d fresh; want %d each", hits, fresh, n)
				}
				if len(events) != n || events[n-1].Done != n || events[n-1].Total != n || !events[0].Cached {
					t.Errorf("warm pass made %d progress event(s), want %d cached ones counting to %d/%d", len(events), n, n, n)
				}

				// Once per cell per pass, under Scenario.Key.
				for pass, evs := range map[string][]sweep.Event{"cold": coldEvents, "warm": events} {
					seen := make(map[string]int, n)
					for _, ev := range evs {
						seen[ev.Scenario.Key()]++
					}
					if len(seen) != n {
						t.Errorf("%s pass reported %d distinct key(s), want %d: %v", pass, len(seen), n, seen)
					}
					for _, key := range keys {
						if got := seen[key]; got != 1 {
							t.Errorf("%s pass reported a cell %d time(s) under its key, want once: %s", pass, got, key)
						}
					}
				}

				// A warm pass reads as hits in its own trace, whichever
				// scheduler the engine would have used for misses.
				if err := tracer.Close(); err != nil {
					t.Fatal(err)
				}
				traced, err := obs.ReadEvents(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if rep := obs.Analyze(traced); rep.CacheHits != n || rep.CacheMisses != 0 {
					t.Errorf("warm pass traced %d cache hit(s) and %d miss(es), want %d and 0", rep.CacheHits, rep.CacheMisses, n)
				}

				// Evaluate reads and writes the lines Run does.
				if _, cached, err := e.Evaluate(ctx, cold.Rows[1].Scenario); err != nil || !cached {
					t.Errorf("a Run cell missed the cache via Evaluate (cached=%v, err=%v)", cached, err)
				}
				probe := cold.Rows[0].Scenario
				probe.Load = sweep.Load{Value: cold.Rows[0].LoadFlits * 1.01}
				if _, cached, err := e.Evaluate(ctx, probe); err != nil || cached {
					t.Errorf("a fresh probe: cached=%v, err=%v", cached, err)
				}
				if _, cached, err := e.Evaluate(ctx, probe); err != nil || !cached {
					t.Errorf("a repeated probe missed the cache: cached=%v, err=%v", cached, err)
				}
			})

			t.Run("Run equals Stream", func(t *testing.T) {
				res, err := ec.new(t).Run(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				rows, last := drain(t, ec.new(t).Stream(ctx, spec), time.Minute)
				if last != nil {
					t.Fatal(last)
				}
				if got, want := rowsJSON(t, rows), rowsJSON(t, res.Rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("streamed rows differ from Run's:\n%s\n---\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
			})

			t.Run("cell failure", func(t *testing.T) {
				bad := contractSpec()
				bad.Topologies[0].Sizes = []int{16, 5} // 5 is not a power of four
				scens, err := sweep.Expand(bad)
				if err != nil {
					t.Fatal(err)
				}
				rows, last := drain(t, ec.new(t).Stream(ctx, bad), time.Minute)
				if last == nil {
					t.Fatalf("stream of an unbuildable grid ended without an error (%d rows)", len(rows))
				}
				named := false
				for _, sc := range scens {
					if sc.Topology.Size == 5 {
						named = named || strings.Contains(last.Error(),
							fmt.Sprintf("sweep: scenario %d (%s, load %v)", sc.Index, sc.CurveKey(), sc.Load.Value))
					}
				}
				if !named {
					t.Errorf("the failure does not name one of the unbuildable cells: %v", last)
				}
				for _, row := range rows {
					if row.Scenario.Topology.Size == 5 {
						t.Errorf("an unbuildable cell was delivered as a row: %+v", row)
					}
				}
			})

			t.Run("cancel", func(t *testing.T) {
				e := ec.new(t)
				e.Cache = sweep.NewCache()
				e.settle()
				before := runtime.NumGoroutine()
				cctx, cancel := context.WithCancel(ctx)
				defer cancel()
				ch := e.Stream(cctx, slowSpec())
				select {
				case pr, ok := <-ch:
					if ok && pr.Err != nil {
						t.Fatal(pr.Err)
					}
				case <-time.After(time.Minute):
					t.Fatal("no first cell within a minute")
				}
				cancel()
				start := time.Now()
				if _, last := drain(t, ch, 30*time.Second); last != nil {
					t.Errorf("cancellation must close the stream, not end it with an error: %v", last)
				}
				if waited := time.Since(start); waited > 15*time.Second {
					t.Errorf("stream took %v to close after cancel", waited)
				}
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
					e.settle()
					if runtime.NumGoroutine() <= before {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("goroutines leaked: %d before the stream, %d after cancel", before, runtime.NumGoroutine())
					}
				}
				// The cache holds only complete cells: a rerun on it matches
				// a clean engine's run.
				salvaged, err := e.Run(ctx, slowSpec())
				if err != nil {
					t.Fatal(err)
				}
				clean, err := ec.new(t).Run(ctx, slowSpec())
				if err != nil {
					t.Fatal(err)
				}
				for i := range salvaged.Rows {
					salvaged.Rows[i].Cached = false
				}
				if got, want := rowsJSON(t, salvaged.Rows), rowsJSON(t, clean.Rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("a rerun on the cancelled sweep's cache differs from a clean run:\n%s\n---\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
			})
		})
	}

	// A cell is Scenario.Key whoever computed it: a cache the fleet filled
	// is all hits for a default local runner, and the reverse; and a
	// calibration map mined from that cache, and from a third run's that
	// computed every cell over again the other way, counts each
	// measurement once.
	t.Run("one key space", func(t *testing.T) {
		ctx := context.Background()
		spec := contractSpec()
		local, fleet := engines[0].new, engines[1].new
		for _, pair := range []struct {
			name       string
			fill, read func(*testing.T) engine
		}{
			{"fleet then local", fleet, local},
			{"local then fleet", local, fleet},
		} {
			t.Run(pair.name, func(t *testing.T) {
				cache := sweep.NewCache()
				filler := pair.fill(t)
				filler.Cache = cache
				cold, err := filler.Run(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				reader := pair.read(t)
				reader.Cache = cache
				warm, err := reader.Run(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				n := len(cold.Rows)
				if _, fresh := reader.Counts(); warm.CacheHits != n || warm.CacheMisses != 0 || fresh != 0 {
					t.Errorf("%d hits, %d misses, %d fresh on the other engine's %d cells; want all hits", warm.CacheHits, warm.CacheMisses, fresh, n)
				}
				for i := range warm.Rows {
					warm.Rows[i].Cached = false
				}
				if got, want := rowsJSON(t, warm.Rows), rowsJSON(t, cold.Rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("rows read back differ from the rows computed:\n%s\n---\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
				if cache.Len() != n {
					t.Errorf("two engines left %d lines for %d cells", cache.Len(), n)
				}
				again := pair.read(t)
				againCache := sweep.NewCache()
				again.Cache = againCache
				if _, err := again.Run(ctx, spec); err != nil {
					t.Fatal(err)
				}
				m := calib.NewMap()
				m.Mine(ctx, cache)
				if added := m.Mine(ctx, againCache); added != 0 {
					t.Errorf("the recomputed cells added %d pair(s) to a map mined from the first cache, want 0", added)
				}
				pairable := 0
				for _, row := range cold.Rows {
					if row.Sim > 0 && !row.SimSaturated && !row.ModelSaturated {
						pairable++
					}
				}
				if pairable == 0 || m.Pairs() != int64(pairable) {
					t.Errorf("the mined map holds %d pair(s) after %d measurements were computed one way, read back and computed the other way", m.Pairs(), pairable)
				}
			})
		}
	})
}
