package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// artifacts are the ten files of a full reproduction run.
var artifacts = []string{
	"figure3.txt", "figure3.csv", "validate.txt", "saturation.txt",
	"ablation.txt", "policy.txt", "hypercube.txt", "torus.txt",
	"hopwaits.txt", "SUMMARY.txt",
}

// TestRunAllSmallScale pins the whole reproduction byte for byte:
// testdata/<scale> holds the artifacts `reproduce -scale <scale> -seed 1`
// wrote before the experiments became one table.
func TestRunAllSmallScale(t *testing.T) {
	scales := []string{"small"}
	if !testing.Short() {
		scales = append(scales, "paper")
	}
	for _, scale := range scales {
		t.Run(scale, func(t *testing.T) {
			dir := t.TempDir()
			summary, err := RunAll(context.Background(), RunAllConfig{
				Dir: dir, Budget: sweep.Quick, Scale: scale,
			})
			if err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(artifacts) {
				t.Errorf("wrote %d files, want %d", len(entries), len(artifacts))
			}
			for _, f := range artifacts {
				got, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Errorf("missing artifact %s: %v", f, err)
					continue
				}
				want, err := os.ReadFile(filepath.Join("testdata", scale, f))
				if err != nil {
					t.Fatal(err)
				}
				if f == "SUMMARY.txt" && !bytes.Equal(got, []byte(summary)) {
					t.Errorf("returned summary differs from SUMMARY.txt")
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s differs from testdata/%s:\n%s", f, scale, got)
				}
			}
		})
	}
}

func TestRunAllBadDir(t *testing.T) {
	_, err := RunAll(context.Background(), RunAllConfig{Dir: "/dev/null/cannot-exist", Budget: tiny})
	if err == nil {
		t.Error("accepted an impossible output directory")
	}
}

// cancelOn cancels a context when a progress line mentions the marker.
type cancelOn struct {
	marker string
	cancel context.CancelFunc
}

func (c cancelOn) Write(p []byte) (int, error) {
	if strings.Contains(string(p), c.marker) {
		c.cancel()
	}
	return len(p), nil
}

// TestRunAllCancelReachesV1 cancels the run as V1 starts: every entry
// takes ctx, so the instrumented simulation must abort instead of
// running to completion.
func TestRunAllCancelReachesV1(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	_, err := RunAll(ctx, RunAllConfig{
		Dir: dir, Budget: tiny, Scale: "small",
		Log: cancelOn{marker: "running V1", cancel: cancel},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "torus.txt")); err != nil {
		t.Errorf("run did not get as far as V1: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "hopwaits.txt")); err == nil {
		t.Error("hopwaits.txt written despite cancellation")
	}
}

// TestTableIntegrity pins the table's shape: the IDs and their order,
// valid specs at both scales, F3/T1 being the sweep builtins, and the
// -dumpspec → -spec round trip.
func TestTableIntegrity(t *testing.T) {
	var ids []string
	for _, e := range All {
		ids = append(ids, e.ID)
		if (e.Spec == nil) != (e.Render == nil) || (e.Spec == nil) == (e.Bespoke == nil) {
			t.Errorf("%s: want Spec+Render or Bespoke", e.ID)
		}
	}
	if want := []string{"F3", "T1", "T2", "A1/A2", "A3", "X1", "X2", "V1"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("IDs %v, want %v", ids, want)
	}
	if _, err := Lookup("F4"); err == nil {
		t.Error("Lookup accepted an unknown ID")
	}

	for builtin, id := range map[string]string{"figure3": "F3", "table2": "T1"} {
		e, _ := Lookup(id)
		got, err := e.Spec("paper", sweep.Quick)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := sweep.Builtin(builtin)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s at paper scale:\n  %+v\nis not builtin:%s:\n  %+v", id, got, builtin, want)
		}
	}

	runner := newTestRunner()
	for i := range All {
		e := &All[i]
		if e.Spec == nil {
			continue
		}
		for _, scale := range []string{"paper", "small"} {
			spec, err := e.Spec(scale, tiny)
			if err != nil {
				t.Fatalf("%s %s: %v", e.ID, scale, err)
			}
			if err := spec.Validate(); err != nil {
				t.Errorf("%s %s: %v", e.ID, scale, err)
			}
		}
		// What `reproduce -only ID -dumpspec` prints, fed back through
		// `-spec`, must render the artifact `-only ID` renders.
		direct, err := e.Run(context.Background(), runner, "small", tiny)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := e.Spec("small", tiny)
		dump, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := sweep.ParseSpec(dump)
		if err != nil {
			t.Fatalf("%s: dumped spec does not parse: %v", e.ID, err)
		}
		viaSpec, err := e.RunSpec(context.Background(), sweep.NewRunner(), parsed)
		if err != nil {
			t.Fatal(err)
		}
		if viaSpec.Text != direct.Text || viaSpec.CSV != direct.CSV || viaSpec.Note != direct.Note {
			t.Errorf("%s: -dumpspec -> -spec round trip changed the artifact:\n%s\nvs\n%s",
				e.ID, viaSpec.Text, direct.Text)
		}
	}
}

// TestSharedRunnerCachesAcrossExperiments verifies experiments on one
// runner share its cache: a cell computed once is a hit for any later
// run whose grid contains it. (The table's own eight grids share no
// cell — seeds derive from the load index and T2 caps the drain limit —
// so the overlap here is an entry run twice.)
func TestSharedRunnerCachesAcrossExperiments(t *testing.T) {
	r := newTestRunner()
	e, err := Lookup("A3")
	if err != nil {
		t.Fatal(err)
	}
	var first Output
	for run := 0; run < 2; run++ {
		out, err := e.Run(context.Background(), r, "small", tiny)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = out
		} else if out.Text != first.Text {
			t.Errorf("cached rerun rendered differently:\n%s\nvs\n%s", out.Text, first.Text)
		}
	}
	hits, misses := r.Cache.(*sweep.Cache).Stats()
	if hits != 8 || misses != 8 {
		t.Errorf("hits=%d misses=%d, want 8/8", hits, misses)
	}
}
