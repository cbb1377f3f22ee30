package bounds_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// mmpp is the bursty builtin's on-off workload, the second envelope the
// golden grid composes.
var mmpp = &workload.Spec{Name: "burst", Process: workload.ProcessMMPP, OnFrac: 0.25, BurstCycles: 200}

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// goldenCell is one operating point of the golden grid.
type goldenCell struct {
	m       *analytic.FatTreeModel
	size    int
	flits   int
	load    float64 // flits/cycle/processor
	lambda0 float64
	wl      *workload.Spec
}

// goldenGrid walks N ∈ {16, 64, 256, 1024} × s ∈ {16, 32} × four loads
// below saturation × the Poisson and MMPP envelopes.
func goldenGrid(t *testing.T, visit func(goldenCell)) {
	for _, n := range []int{16, 64, 256, 1024} {
		for _, s := range []int{16, 32} {
			m, err := analytic.NewFatTreeModel(n, float64(s), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sat, err := m.SaturationLoad()
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0.2, 0.5, 0.8, 0.95} {
				load := frac * sat
				for _, wl := range []*workload.Spec{nil, mmpp} {
					visit(goldenCell{m: m, size: n, flits: s, load: load, lambda0: load / float64(s), wl: wl})
				}
			}
		}
	}
}

// TestGoldenReport pins Compute's full Report — every hop field, Total
// and MaxBacklog — bit for bit against testdata/golden.txt.
func TestGoldenReport(t *testing.T) {
	const path = "testdata/golden.txt"
	var b strings.Builder
	goldenGrid(t, func(c goldenCell) {
		burst, _ := bounds.Envelope(c.wl, c.lambda0)
		fmt.Fprintf(&b, "%s lambda0=%s burst=%s", c.m.Name(), hexf(c.lambda0), hexf(burst))
		rep, err := bounds.Compute(c.m, c.lambda0, burst)
		if err != nil {
			fmt.Fprintf(&b, " error %v\n", err)
			return
		}
		fmt.Fprintf(&b, " total=%s max_backlog=%s rep_lambda0=%s rep_burst=%s\n",
			hexf(rep.Total), hexf(rep.MaxBacklog), hexf(rep.Lambda0), hexf(rep.Burst))
		for _, h := range rep.Hops {
			fmt.Fprintf(&b, "  %s m=%d service=%s rho=%s sources=%d sigma=%s delay=%s backlog=%s\n",
				h.Name, h.Servers, hexf(h.Service), hexf(h.Rho), h.Sources, hexf(h.Sigma), hexf(h.Delay), hexf(h.Backlog))
		}
	})
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(data), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("golden line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
	}
}

// TestEvaluateMatchesCompute: on the golden grid a cell's BoundMax is
// Compute's Report.Total, bit for bit.
func TestEvaluateMatchesCompute(t *testing.T) {
	b := bounds.New(eval.NewAnalyticBackend())
	goldenGrid(t, func(c goldenCell) {
		burst, _ := bounds.Envelope(c.wl, c.lambda0)
		rep, err := bounds.Compute(c.m, c.lambda0, burst)
		if err != nil {
			t.Fatalf("%s lambda0=%v: %v", c.m.Name(), c.lambda0, err)
		}
		pt, err := b.Evaluate(context.Background(), eval.Scenario{
			Topology:   eval.Topology{Family: eval.FamilyBFT, Size: c.size},
			MsgFlits:   c.flits,
			Load:       eval.Load{Value: c.load},
			Workload:   c.wl,
			WithBounds: true,
		})
		if err != nil {
			t.Fatalf("%s lambda0=%v: %v", c.m.Name(), c.lambda0, err)
		}
		if pt.BoundMax != rep.Total {
			t.Errorf("%s lambda0=%v burst=%v: BoundMax %v, Report.Total %v", c.m.Name(), c.lambda0, burst, pt.BoundMax, rep.Total)
		}
	})
}
