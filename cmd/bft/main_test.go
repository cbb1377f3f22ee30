package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/workload"
)

// bftCLI calls run in-process the way main does, returning stdout.
func bftCLI(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
}

var latencyLine = regexp.MustCompile(`average latency L\s+= ([0-9.]+) cycles \(Eq\. 25\)`)

// modelLatency returns the Eq. 25 figure `bft model` printed in out.
func modelLatency(t *testing.T, out string) float64 {
	t.Helper()
	m := latencyLine.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no Eq. 25 line in:\n%s", out)
	}
	l, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestModel: one operating point prints the Eq. 25 decomposition and one
// row per channel class — up and down at each of the log₄N levels.
func TestModel(t *testing.T) {
	out, err := bftCLI("model", "-n", "64")
	if err != nil {
		t.Fatal(err)
	}
	if l := modelLatency(t, out); l <= 16 {
		t.Errorf("L = %v cycles at s = 16 flits: below the message length", l)
	}
	up, down := strings.Count(out, "\nup<"), strings.Count(out, "\ndown<")
	if up != 3 || down != 3 {
		t.Errorf("%d up and %d down class rows, want 3 and 3 (2·log₄64):\n%s", up, down, out)
	}

	for _, mode := range []string{"-saturation", "-inspect"} {
		out, err := bftCLI("model", "-n", "64", mode)
		if err != nil || out == "" {
			t.Errorf("model %s: %q, %v", mode, out, err)
		}
		if latencyLine.MatchString(out) {
			t.Errorf("model %s went on to evaluate a point:\n%s", mode, out)
		}
	}
}

// TestBoundsDominatesModel: the -json report decodes, and the guaranteed
// worst case is no better than the mean the model predicts at that point.
func TestBoundsDominatesModel(t *testing.T) {
	out, err := bftCLI("bounds", "-n", "64", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var rep bounds.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bounds -json: %v\n%s", err, out)
	}
	mean, err := bftCLI("model", "-n", "64")
	if err != nil {
		t.Fatal(err)
	}
	if l := modelLatency(t, mean); len(rep.Hops) == 0 || rep.Total < l {
		t.Errorf("bound %v over %d hops, model mean %v: a worst case below the mean", rep.Total, len(rep.Hops), l)
	}
}

func TestSim(t *testing.T) {
	out, err := bftCLI("sim", "-n", "16", "-warmup", "200", "-measure", "1000")
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^  latency: mean=[0-9.]+ `).MatchString(out) {
		t.Errorf("no latency line in:\n%s", out)
	}
}

var kindRow = regexp.MustCompile(`(?m)^    (\S+) +[0-9.]+$`)

// TestSimKindRows: the busy-fraction rows that end `bft sim` list the
// network's channel kinds in ChannelKind order, run after run.
func TestSimKindRows(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "16"}, "inj ej up down"},
		{[]string{"-n", "64"}, "inj ej up down"},
		{[]string{"-n", "16", "-policy", "randomfixed"}, "inj ej up down"},
		{[]string{"-cube", "3"}, "inj ej link"},
		{[]string{"-cube", "4"}, "inj ej link"},
	} {
		out, err := bftCLI(append([]string{"sim", "-warmup", "200", "-measure", "1000"}, tc.args...)...)
		if err != nil {
			t.Fatal(err)
		}
		var kinds []string
		for _, m := range kindRow.FindAllStringSubmatch(out, -1) {
			kinds = append(kinds, m[1])
		}
		if got := strings.Join(kinds, " "); got != tc.want {
			t.Errorf("bft sim %q: kind rows %q, want %q:\n%s", tc.args, got, tc.want, out)
		}
	}
}

// TestRecordReplayBitIdentity is the workload subsystem's determinism
// contract end to end: a 512-PE bursty (MMPP on-off) run recorded to an
// NDJSON arrival trace replays to a byte-identical Result file, and the
// recorded process really is bursty (pooled interarrival SCV >= 2;
// Poisson would read ~1).
func TestRecordReplayBitIdentity(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "burst512.ndjson")
	recorded, replayed := filepath.Join(dir, "recorded.txt"), filepath.Join(dir, "replayed.txt")

	// 512 processors = a 9-dimension binary hypercube (fat-tree sizes
	// are powers of four).
	if _, err := bftCLI("sim", "-record", trace, "-cube", "9", "-flits", "16",
		"-load", "0.08", "-warmup", "4000", "-measure", "20000", "-seed", "1",
		"-workload", `{"process":"mmpp","on_frac":0.25,"burst_cycles":200}`,
		"-result-out", recorded); err != nil {
		t.Fatal(err)
	}
	if _, err := bftCLI("replay", "-trace", trace, "-result-out", replayed); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(recorded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Errorf("replay diverged from the recording:\n--- recorded\n%s--- replayed\n%s", want, got)
	}

	out, err := bftCLI("stats", "-trace", trace, "-top", "1")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Header workload.TraceHeader `json:"header"`
		Stats  workload.TraceStats  `json:"stats"`
	}
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if st.Header.Size != 512 || st.Stats.Events == 0 {
		t.Errorf("stats: %d processors, %d events; want 512 and a recorded run", st.Header.Size, st.Stats.Events)
	}
	if st.Stats.SCV < 2 {
		t.Errorf("interarrival SCV %.3g: the bursty workload is not clearly bursty (want >= 2)", st.Stats.SCV)
	}
}

// TestOutputNamesNoFoldedBinary: bftmodel, bftsim and bftbounds are this
// binary's subcommands now; nothing it prints sends a reader to them.
func TestOutputNamesNoFoldedBinary(t *testing.T) {
	for _, args := range [][]string{
		{"model", "-n", "64"},
		{"model", "-n", "64", "-saturation"},
		{"model", "-n", "64", "-inspect"},
		{"sim", "-n", "16", "-warmup", "200", "-measure", "1000", "-hist"},
		{"bounds", "-n", "64"},
		{"bounds", "-n", "64", "-json"},
	} {
		out, err := bftCLI(args...)
		if err != nil || out == "" {
			t.Fatalf("bft %q: %q, %v", args, out, err)
		}
		if m := regexp.MustCompile(`bft(model|sim|bounds)`).FindString(out); m != "" {
			t.Errorf("bft %q names %s:\n%s", args, m, out)
		}
	}
}

// TestUsageErrors: what is wrong with the command line is named.
func TestUsageErrors(t *testing.T) {
	wantUsageErrors(t, []usageCase{
		{nil, "usage: bft model|sim|replay|stats|bounds"},
		{[]string{"latency"}, `unknown subcommand "latency"`},
		{[]string{"sim", "-n", "16", "-workload", `{"proces":"mmpp"}`}, `unknown field "proces"`},
		{[]string{"sim", "-flits", "2.5"}, "whole flits"},
		{[]string{"sim", "-policy", "fifo"}, `unknown policy "fifo"`},
		{[]string{"sim", "-cube", "17"}, "too large to simulate: the limit is 65536 processors"},
		{[]string{"sim", "-n", "262144"}, "too large to simulate: the limit is 65536 processors"},
	})
}

// TestTraceUsageErrors: the arrival-trace paths — sim -record, replay and
// stats — name what is wrong with their command line.
func TestTraceUsageErrors(t *testing.T) {
	wantUsageErrors(t, []usageCase{
		{[]string{"sim", "-n", "16", "-record", filepath.Join(t.TempDir(), "r.ndjson"), "-replicas", "2"}, "recording with replicas > 1"},
		{[]string{"sim", "-n", "16", "-record", filepath.Join(t.TempDir(), "r.ndjson"), "-precision", "0.05"}, "drop -precision"},
		{[]string{"replay"}, "-trace is required"},
		{[]string{"stats", "-trace", filepath.Join(t.TempDir(), "absent.ndjson")}, "no such file"},
	})
}

type usageCase struct {
	args []string
	want string
}

// wantUsageErrors checks that each case fails with an error naming want
// and prints nothing.
func wantUsageErrors(t *testing.T, cases []usageCase) {
	t.Helper()
	for _, tc := range cases {
		if out, err := bftCLI(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) || out != "" {
			t.Errorf("bft %q: stdout %q, error %v; want an error naming %q", tc.args, out, err, tc.want)
		}
	}
}
