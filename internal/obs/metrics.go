package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is the one metrics surface of the stack: a component
// describes its numbers by implementing Collector over the fields it
// already keeps, and WriteMetrics is the only code that knows the
// Prometheus text format. Counters with no instance to hang on (a
// sim.Run, a model evaluation) live in the process-wide registry below
// and reach a scrape through Process.

// Kind says how a Sample is typed and named on the wire.
type Kind uint8

const (
	// KindCounter is a monotonic total.
	KindCounter Kind = iota
	// KindGauge is a value that can go down.
	KindGauge
	// KindBucket, KindSum and KindCount are the three parts of a
	// histogram family: Name is the family, the writer appends
	// _bucket, _sum or _count, and a bucket's Labels carry its le.
	KindBucket
	KindSum
	KindCount
)

// Sample is one number on its way to a scrape.
type Sample struct {
	Name   string // family name, without any histogram suffix
	Kind   Kind
	Labels string // pre-formatted `k="v",…` (see Label); "" for none
	Value  float64
	Help   string // optional; the family's first sample supplies it
}

// Label formats one label pair for Sample.Labels; join several with a
// comma.
func Label(key, value string) string { return key + "=" + strconv.Quote(value) }

// Collector is implemented by anything with numbers to export. Collect
// must be safe to call concurrently with the component's own work and
// should emit a family's samples in a deterministic order.
type Collector interface {
	Collect(emit func(Sample))
}

// Gather runs the collectors in order and returns everything they
// emitted.
func Gather(cs ...Collector) []Sample {
	var out []Sample
	for _, c := range cs {
		c.Collect(func(s Sample) { out = append(out, s) })
	}
	return out
}

// WriteMetrics renders the collectors' samples in the Prometheus text
// exposition format: families sorted by name, one # HELP (when given)
// and one # TYPE line per family, a family's samples in the order they
// were emitted, whole numbers as integers and everything else as %g.
func WriteMetrics(w io.Writer, cs ...Collector) error {
	samples := Gather(cs...)
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	var b bytes.Buffer
	for i, s := range samples {
		if i == 0 || s.Name != samples[i-1].Name {
			if s.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.Name, s.Help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.Name, kindType[s.Kind])
		}
		b.WriteString(s.Name)
		b.WriteString(kindSuffix[s.Kind])
		if s.Labels != "" {
			fmt.Fprintf(&b, "{%s}", s.Labels)
		}
		if v := s.Value; v == math.Trunc(v) && math.Abs(v) < 1<<53 {
			fmt.Fprintf(&b, " %d\n", int64(v))
		} else {
			fmt.Fprintf(&b, " %g\n", v)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

var (
	kindType   = [...]string{KindCounter: "counter", KindGauge: "gauge", KindBucket: "histogram", KindSum: "histogram", KindCount: "histogram"}
	kindSuffix = [...]string{KindBucket: "_bucket", KindSum: "_sum", KindCount: "_count"}
)

// Counter is a process-wide monotonic counter. Counters are cheap
// atomics; hot loops should still accumulate locally and Add once per
// run, which is what the sim engine does.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

var (
	regMu    sync.Mutex
	registry = make(map[string]*Counter)
)

// NewCounter registers (or returns the existing) counter under name.
// It is for library layers whose work has no instance to own the
// number — the simulator, the analytic model, the bound calculus; a
// component with an instance (a store, a map, a server) implements
// Collector over its own fields instead. Names follow Prometheus
// conventions and end in _total.
func NewCounter(name string) *Counter {
	regMu.Lock()
	defer regMu.Unlock()
	if c, ok := registry[name]; ok {
		return c
	}
	c := &Counter{}
	registry[name] = c
	return c
}

// Counters returns a point-in-time snapshot of every registered
// counter, sorted iteration being left to the caller.
func Counters() map[string]int64 {
	regMu.Lock()
	defer regMu.Unlock()
	out := make(map[string]int64, len(registry))
	for name, c := range registry {
		out[name] = c.v.Load()
	}
	return out
}

// Process is the Collector over the registered process-wide counters.
var Process Collector = processCounters{}

type processCounters struct{}

func (processCounters) Collect(emit func(Sample)) {
	for name, v := range Counters() {
		emit(Sample{Name: name, Kind: KindCounter, Value: float64(v)})
	}
}
