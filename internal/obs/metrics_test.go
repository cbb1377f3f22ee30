package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fixture is a collector with one family of every shape, interleaved
// the way real collectors emit them (per labelled instance, not per
// family), over a value that moves while scrapes run.
type fixture struct{ n atomic.Int64 }

func (f *fixture) Collect(emit func(Sample)) {
	n := float64(f.n.Load())
	emit(Sample{Name: "t_depth", Kind: KindGauge, Value: 7})
	for _, path := range []string{"/a", "/b"} {
		p := Label("path", path)
		emit(Sample{Name: "t_requests_total", Kind: KindCounter, Labels: p, Value: n, Help: "Requests."})
		emit(Sample{Name: "t_seconds", Kind: KindBucket, Labels: p + "," + Label("le", "0.5"), Value: 1})
		emit(Sample{Name: "t_seconds", Kind: KindBucket, Labels: p + "," + Label("le", "+Inf"), Value: 2})
		emit(Sample{Name: "t_seconds", Kind: KindSum, Labels: p, Value: 0.75})
		emit(Sample{Name: "t_seconds", Kind: KindCount, Labels: p, Value: 2})
	}
	emit(Sample{Name: "t_mape", Kind: KindGauge, Labels: Label("region", `bft-64/s=8/"q"`), Value: 0.1})
	emit(Sample{Name: "t_mape", Kind: KindGauge, Labels: Label("region", "torus"), Value: 1e-9})
	emit(Sample{Name: "t_bytes_total", Kind: KindCounter, Value: 1 << 40})
}

const fixtureText = `# TYPE t_bytes_total counter
t_bytes_total 1099511627776
# TYPE t_depth gauge
t_depth 7
# TYPE t_mape gauge
t_mape{region="bft-64/s=8/\"q\""} 0.1
t_mape{region="torus"} 1e-09
# HELP t_requests_total Requests.
# TYPE t_requests_total counter
t_requests_total{path="/a"} 3
t_requests_total{path="/b"} 3
# TYPE t_seconds histogram
t_seconds_bucket{path="/a",le="0.5"} 1
t_seconds_bucket{path="/a",le="+Inf"} 2
t_seconds_sum{path="/a"} 0.75
t_seconds_count{path="/a"} 2
t_seconds_bucket{path="/b",le="0.5"} 1
t_seconds_bucket{path="/b",le="+Inf"} 2
t_seconds_sum{path="/b"} 0.75
t_seconds_count{path="/b"} 2
`

// TestWriteMetricsGolden pins the one text renderer: families sorted and
// grouped however the collectors interleave them, one # TYPE per family,
// emission order inside a family, integers as integers, floats as %g,
// label values quoted — and the output round-trips through ParseMetrics
// (which rejects a duplicate sample).
func TestWriteMetricsGolden(t *testing.T) {
	f := &fixture{}
	f.n.Store(3)
	var b strings.Builder
	if err := WriteMetrics(&b, f); err != nil {
		t.Fatal(err)
	}
	if b.String() != fixtureText {
		t.Errorf("WriteMetrics:\n%s\nwant:\n%s", b.String(), fixtureText)
	}
	samples, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 14 || samples[`t_mape{region="torus"}`] != 1e-9 || samples[`t_seconds_sum{path="/b"}`] != 0.75 {
		t.Errorf("round trip lost samples: %v", samples)
	}
}

// TestWriteMetricsConcurrent scrapes two collectors — the fixture and
// the process-wide counters — from several goroutines while both move:
// every scrape parses, carries one # TYPE per family, and sees the
// registered counter. Under -race this is the Collect contract's check.
func TestWriteMetricsConcurrent(t *testing.T) {
	f := &fixture{}
	c := NewCounter("obs_test_scrapes_total")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f.n.Add(1)
				c.Add(1)
				var b strings.Builder
				if err := WriteMetrics(&b, f, Process); err != nil {
					t.Error(err)
					return
				}
				samples, err := ParseMetrics(strings.NewReader(b.String()))
				if err != nil {
					t.Error(err)
					return
				}
				if samples["obs_test_scrapes_total"] < 1 {
					t.Error("scrape lost the process-wide counter")
				}
				types := make(map[string]int)
				for _, line := range strings.Split(b.String(), "\n") {
					if strings.HasPrefix(line, "# TYPE ") {
						types[strings.Fields(line)[2]]++
					}
				}
				for family, n := range types {
					if n != 1 {
						t.Errorf("family %s has %d # TYPE lines, want 1", family, n)
					}
				}
			}
		}()
	}
	wg.Wait()
}
