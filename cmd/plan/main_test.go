package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
)

// planCLI calls run in-process the way main does, returning stdout.
func planCLI(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
}

// fleet starts n fresh sweep servers and returns their addresses.
func fleet(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv := httptest.NewServer(serve.New(serve.WithCache(sweep.NewCache())))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// planJSON is what these tests read of a plan's -json output: the
// result's stats and, per frontier member, its wire fields (null is nil).
type planJSON struct {
	Frontier []struct {
		Topology       string   `json:"topology"`
		MsgFlits       int      `json:"msg_flits"`
		Policy         string   `json:"policy"`
		Sim            *float64 `json:"sim_latency"`
		BoundMax       *float64 `json:"bound_max"`
		BoundUnbounded bool     `json:"bound_unbounded"`
		BoundNA        bool     `json:"bound_na"`
		CalibVerdict   string   `json:"calib_verdict"`
	} `json:"frontier"`
	Stats plan.Stats `json:"stats"`
}

var elapsedLine = regexp.MustCompile(`(?m)^\s*"elapsed_ms": \d+,?\n`)

// TestFleetMatchesLocal: the CI-sized capacity question and the
// hard-SLO question print the same -json answer whether the search's
// evaluations run in-process or over a 2-shard fleet (-shards), wall
// clock aside — and the answer is a real one: a non-empty
// frontier, every member sim-certified, fewer simulations than the
// coarse grid has cells, and under a hard SLO every member bounded with
// its measured mean under the guarantee.
func TestFleetMatchesLocal(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		hardSLO bool
	}{
		{"builtin:bft-capacity-small", false},
		{"builtin:cheapest-hard-sla", true},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			base := []string{"-spec", tc.spec, "-quiet", "-json"}
			local, err := planCLI(base...)
			if err != nil {
				t.Fatal(err)
			}
			want := elapsedLine.ReplaceAllString(local, "")
			got, err := planCLI(append(base, "-shards", strings.Join(fleet(t, 2), ","))...)
			if err != nil {
				t.Fatal(err)
			}
			if got = elapsedLine.ReplaceAllString(got, ""); got != want {
				t.Errorf("-shards diverged from the in-process search:\n--- in-process\n%s\n--- -shards\n%s", want, got)
			}

			var res planJSON
			if err := json.Unmarshal([]byte(local), &res); err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			if s.FrontierSize < 1 || len(res.Frontier) != s.FrontierSize {
				t.Fatalf("frontier: %d member(s), stats say %d; want >= 1", len(res.Frontier), s.FrontierSize)
			}
			if s.Certified != s.FrontierSize {
				t.Errorf("frontier not fully sim-certified: %d of %d", s.Certified, s.FrontierSize)
			}
			if s.CoarseCells-s.SimEvals < 1 {
				t.Errorf("planner saved no simulations against the grid: %d coarse cells, %d sim evals", s.CoarseCells, s.SimEvals)
			}
			if !tc.hardSLO {
				return
			}
			orNaN := func(v *float64) float64 {
				if v == nil {
					return math.NaN()
				}
				return *v
			}
			for _, c := range res.Frontier {
				key := fmt.Sprintf("%s/s=%d/%s", c.Topology, c.MsgFlits, c.Policy)
				sim, bound := orNaN(c.Sim), orNaN(c.BoundMax)
				if c.BoundUnbounded {
					bound = math.Inf(1)
				}
				if c.BoundNA || math.IsNaN(bound) {
					t.Errorf("%s: hard-SLO frontier member carries no worst-case bound", key)
				} else if !(sim <= bound) {
					t.Errorf("%s: certified sim mean %v above its worst-case bound %v", key, sim, bound)
				}
			}
		})
	}
}

// TestTrustGatedPlan: over a -cache-dir store holding a with-sim grid,
// the region the store covers skips its certification simulation
// ("trusted") while the unmined policy escalates to the simulator, the
// verdict shows on the frontier, and the plan.decision spans in
// -trace-out tally the same verdicts.
func TestTrustGatedPlan(t *testing.T) {
	// Mine pairqueue bft-64 s=8 around the plan's operating point
	// (0.72x saturation, the 50-75% band); randomfixed stays unmined.
	mine, err := sweep.ParseSpec([]byte(`{
		"name": "calib-mine",
		"topologies": [{"family": "bft", "sizes": [64]}],
		"msg_flits": [8],
		"loads": {"fracs": [0.55, 0.6, 0.65, 0.7]},
		"with_sim": true,
		"budget": {"warmup": 2000, "measure": 10000, "seed": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	storeDir, tracePath := filepath.Join(dir, "store"), filepath.Join(dir, "trace.ndjson")
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.NewRunner(sweep.WithCache(st)).Run(context.Background(), mine); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := planCLI("-spec", "builtin:calibrated-capacity",
		"-cache-dir", storeDir, "-trace-out", tracePath, "-quiet", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var res planJSON
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Trusted < 1 || s.Escalated+s.Uncalibrated < 1 {
		t.Fatalf("verdicts: %d trusted, %d escalated, %d uncalibrated; want the mined region trusted and the unmined one sent to the simulator\n%s",
			s.Trusted, s.Escalated, s.Uncalibrated, out)
	}
	trusted := 0
	for _, c := range res.Frontier {
		if c.CalibVerdict == "trusted" {
			trusted++
		}
	}
	if trusted < 1 || !strings.Contains(out, `"calib_verdict": "trusted"`) {
		t.Errorf("no trusted verdict on any frontier candidate:\n%s", out)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	report := obs.Analyze(events)
	d := report.Decisions
	if d["trusted"] != s.Trusted || d["escalated"] != s.Escalated || d["uncalibrated"] != s.Uncalibrated {
		t.Errorf("trace decisions %v do not tally the result's %d trusted / %d escalated / %d uncalibrated",
			d, s.Trusted, s.Escalated, s.Uncalibrated)
	}
	var text bytes.Buffer
	report.Format(&text) // what obsreport prints
	if want := fmt.Sprintf("trusted=%d", s.Trusted); !strings.Contains(text.String(), want) {
		t.Errorf("obsreport's decisions line does not show %s:\n%s", want, text.String())
	}
}

func TestFlagConflictsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", "builtin:bft-capacity-small", "-addr", "a:1"}, "flag provided but not defined: -addr"},
		{[]string{"-spec", "builtin:no-such-plan"}, "no-such-plan"},
		{nil, "no -spec given"},
	} {
		out, err := planCLI(tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.want)
		}
		if out != "" {
			t.Errorf("%v: a rejected invocation printed to stdout: %q", tc.args, out)
		}
	}
}
