package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// traceCLI calls run in-process the way main does, returning stdout.
func traceCLI(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), args, &stdout, &stderr)
	return stdout.String(), err
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
	out, err := traceCLI("record", "-o", trace, "-cube", "9", "-flits", "16",
		"-load", "0.08", "-warmup", "4000", "-measure", "20000", "-seed", "1",
		"-workload", `{"process":"mmpp","on_frac":0.25,"burst_cycles":200}`,
		"-result-out", recorded, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var rec bench
	if err := json.Unmarshal([]byte(out), &rec); err != nil || rec.Mode != "record" || rec.Events == 0 {
		t.Fatalf("record -json line %q: %v", out, err)
	}

	out, err = traceCLI("replay", "-trace", trace, "-result-out", replayed, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var rep bench
	if err := json.Unmarshal([]byte(out), &rep); err != nil || rep.Mode != "replay" || rep.Events != rec.Events {
		t.Fatalf("replay -json line %q (recorded %d events): %v", out, rec.Events, err)
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

	out, err = traceCLI("stats", "-trace", trace, "-top", "1")
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
	if st.Header.Size != 512 || st.Stats.Events != rec.Events {
		t.Errorf("stats: %d processors, %d events; want 512 and the recorded %d", st.Header.Size, st.Stats.Events, rec.Events)
	}
	if st.Stats.SCV < 2 {
		t.Errorf("interarrival SCV %.3g: the bursty workload is not clearly bursty (want >= 2)", st.Stats.SCV)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "usage: trace record|replay|stats"},
		{[]string{"rewind"}, "unknown subcommand"},
		{[]string{"record"}, "-o is required"},
		{[]string{"replay"}, "-trace is required"},
		{[]string{"stats", "-trace", filepath.Join(t.TempDir(), "absent.ndjson")}, "no such file"},
	} {
		if _, err := traceCLI(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
}
