package workload

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/topology"
)

func sampleTrace() *Trace {
	return &Trace{
		Header: TraceHeader{
			Family: "fattree", Size: 4, MsgFlits: 8,
			Lambda0: 0.01, Warmup: 100, Measure: 1000,
			Seed: 42, Policy: "pairqueue", Workload: "mmpp(0.25,200)/uniform/uniform",
		},
		Events: []TraceEvent{
			{Src: 0, Dst: 1, Cycle: 1.5, MsgFlits: 8},
			{Src: 1, Dst: 2, Cycle: 2.25, MsgFlits: 8},
			{Src: 0, Dst: 3, Cycle: 4.0, MsgFlits: 8},
			{Src: 2, Dst: 0, Cycle: 4.0, MsgFlits: 8},
			{Src: 0, Dst: 2, Cycle: 9.5, MsgFlits: 8},
		},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Version != TraceVersion {
		t.Errorf("version %d, want %d", got.Header.Version, TraceVersion)
	}
	want := *tr
	want.Header.Version = TraceVersion
	if got.Header != want.Header {
		t.Errorf("header %+v, want %+v", got.Header, want.Header)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("%d events, want %d", len(got.Events), len(tr.Events))
	}
	for i, ev := range got.Events {
		if ev != tr.Events[i] {
			t.Errorf("event %d: %+v, want %+v", i, ev, tr.Events[i])
		}
	}
	// A second write of the parsed trace is byte-identical: the file
	// format is canonical.
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-written trace differs from the original bytes")
	}
}

func TestReadTraceRejectsCorruptInput(t *testing.T) {
	valid := func() *Trace { return sampleTrace() }
	cases := []struct {
		name    string
		mutate  func(*Trace)
		wantErr string
	}{
		{"dst out of range", func(tr *Trace) { tr.Events[0].Dst = 9 }, "bad src/dst"},
		{"self send", func(tr *Trace) { tr.Events[0].Dst = tr.Events[0].Src }, "bad src/dst"},
		{"negative cycle", func(tr *Trace) { tr.Events[0].Cycle = -1 }, "bad cycle"},
		{"flits mismatch", func(tr *Trace) { tr.Events[0].MsgFlits = 16 }, "msg_flits"},
	}
	for _, c := range cases {
		tr := valid()
		c.mutate(tr)
		var buf bytes.Buffer
		// Bypass WriteTrace's canonical sort by encoding manually? Write
		// keeps the events; the mutations above survive sorting.
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("%s: write: %v", c.name, err)
		}
		_, err := ReadTrace(bytes.NewReader(buf.Bytes()))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}

	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Error("empty input: expected error")
	}
	if _, err := ReadTrace(strings.NewReader(`{"trace_version":99,"size":4,"msg_flits":8}`)); err == nil {
		t.Error("bad version: expected error")
	}
	nonMonotone := `{"trace_version":1,"family":"fattree","size":4,"msg_flits":8,"lambda0":0.01,"warmup":1,"measure":1,"seed":1,"policy":"pairqueue"}
{"src":0,"dst":1,"cycle":5,"msg_flits":8}
{"src":0,"dst":2,"cycle":3,"msg_flits":8}
`
	if _, err := ReadTrace(strings.NewReader(nonMonotone)); err == nil || !strings.Contains(err.Error(), "monotone") {
		t.Errorf("non-monotone source arrivals: err = %v", err)
	}
}

// oversizedHeader is a 74-byte trace naming a 2^40-processor network.
// Sizing the per-source state from it asks the runtime for 8 TiB, which
// kills the process outright, past any recover in the caller.
const oversizedHeader = `{"trace_version":1,"family":"fattree","size":1099511627776,"msg_flits":16}`

// A trace header naming a network above topology.MaxProcessors is
// refused before anything is sized from it.
func TestReadTraceRejectsOversizedHeader(t *testing.T) {
	_, err := ReadTrace(strings.NewReader(oversizedHeader))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("limit is %d processors", topology.MaxProcessors)) {
		t.Fatalf("oversized header: err = %v, want the processor limit", err)
	}
	at := fmt.Sprintf(`{"trace_version":1,"family":"fattree","size":%d,"msg_flits":16}`, topology.MaxProcessors)
	if _, err := ReadTrace(strings.NewReader(at)); err != nil {
		t.Fatalf("a header at the limit: %v", err)
	}
}

// FuzzReadTrace: any input either is refused, or parses into a trace
// that WriteTrace and ReadTrace carry through unchanged.
func FuzzReadTrace(f *testing.F) {
	recorded, err := os.ReadFile("testdata/recorded.ndjson")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded)
	f.Add([]byte(oversizedHeader))
	var sample bytes.Buffer
	if err := WriteTrace(&sample, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("WriteTrace of a parsed trace: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("ReadTrace of a written trace: %v\n%s", err, buf.Bytes())
		}
		if back.Header != tr.Header || len(back.Events) != len(tr.Events) {
			t.Fatalf("round trip moved the trace: header %+v → %+v, %d → %d events",
				tr.Header, back.Header, len(tr.Events), len(back.Events))
		}
		for i := range tr.Events {
			if back.Events[i] != tr.Events[i] {
				t.Fatalf("round trip moved event %d: %+v → %+v", i, tr.Events[i], back.Events[i])
			}
		}
	})
}

func TestTraceSourcesReplayInOrder(t *testing.T) {
	tr := sampleTrace()
	srcs := tr.Sources()
	if len(srcs) != tr.Header.Size {
		t.Fatalf("%d sources, want %d", len(srcs), tr.Header.Size)
	}
	s0 := srcs[0].(*TraceSource)
	wantTimes := []float64{1.5, 4.0, 9.5}
	wantDsts := []int{1, 3, 2}
	for i, wt := range wantTimes {
		if got := s0.Peek(); got != wt {
			t.Fatalf("peek %d: %v, want %v", i, got, wt)
		}
		a, ok := s0.PopBefore(math.Inf(1))
		if !ok || a != wt {
			t.Fatalf("pop %d: %v %v, want %v", i, a, ok, wt)
		}
		if got := s0.LastDest(); got != wantDsts[i] {
			t.Fatalf("pop %d: dest %d, want %d", i, got, wantDsts[i])
		}
	}
	if !math.IsInf(s0.Peek(), 1) {
		t.Error("exhausted source must peek +Inf")
	}
	if _, ok := s0.PopBefore(math.Inf(1)); ok {
		t.Error("exhausted source must not pop")
	}
	// PopBefore is strict: an arrival at exactly the limit stays queued.
	s1 := srcs[1].(*TraceSource)
	if _, ok := s1.PopBefore(2.25); ok {
		t.Error("arrival at the limit must not pop")
	}
	if _, ok := s1.PopBefore(2.26); !ok {
		t.Error("arrival before the limit must pop")
	}
	// Source 3 recorded nothing.
	if !math.IsInf(srcs[3].Peek(), 1) {
		t.Error("idle source must peek +Inf")
	}
}

func TestTraceStats(t *testing.T) {
	tr := sampleTrace()
	st := tr.Stats(2)
	if st.Events != 5 {
		t.Errorf("events = %d, want 5", st.Events)
	}
	if st.Span != 9.5 {
		t.Errorf("span = %v, want 9.5", st.Span)
	}
	if st.ActiveSources != 3 {
		t.Errorf("active sources = %d, want 3", st.ActiveSources)
	}
	wantRate := 5.0 / 9.5 / 4.0
	if math.Abs(st.MeanRate-wantRate) > 1e-12 {
		t.Errorf("mean rate = %v, want %v", st.MeanRate, wantRate)
	}
	if len(st.TopDests) != 2 {
		t.Fatalf("top dests = %v, want 2 entries", st.TopDests)
	}
	// Destination 2 is hit twice (share 0.4); the remaining ties at one
	// hit break by destination index (0 first).
	if st.TopDests[0].Dst != 2 || math.Abs(st.TopDests[0].Share-0.4) > 1e-12 {
		t.Errorf("top dest = %+v, want dst 2 share 0.4", st.TopDests[0])
	}
	if st.TopDests[1].Dst != 0 {
		t.Errorf("second dest = %+v, want dst 0", st.TopDests[1])
	}
	if math.IsNaN(st.SCV) {
		t.Error("SCV must be NaN-free")
	}
}
