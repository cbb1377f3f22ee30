// Package topology builds the interconnection networks studied in the
// paper: the butterfly fat-tree of §3.1 (the paper's target network, with
// the exact port wiring of Figure 2) and a binary hypercube (the "other
// networks" the general model extends to, §4).
//
// A network is described as a set of unit-bandwidth directed channels
// (1 flit/cycle, as the paper assumes) plus arbitration groups: a group is
// a run of consecutive outgoing channels that worms contend for as a
// single logical multi-server resource, named by its first channel. In
// the butterfly fat-tree the two up-links of a switch form one group of
// two servers — exactly the resource the paper models with an M/G/2
// queue — while every other channel is a group of one. Both networks lay
// each processor's injection and ejection channels side by side at a
// fixed stride, so a network's tables are two bytes per channel (its
// kind and its place in its group) and that stride. Those tables are all
// a network keeps: both route by arithmetic on a channel's position, the
// hypercube by e-cube routing and the fat-tree by §3.1's wiring formulas.
package topology

import (
	"fmt"
	"strconv"
	"sync"
)

// ChannelID identifies a directed channel. IDs are dense in
// [0, NumChannels).
type ChannelID = int32

// GroupID identifies an arbitration group by its first channel, so IDs
// are a subset of [0, NumChannels).
type GroupID = int32

// MaxProcessors caps the network the simulator is asked to build:
// bft-65536, the 16-cube. A network's tables, and a replayed trace's
// per-source state, grow with its processor count, so an unbounded size
// in a request or a trace header is an unbounded allocation; callers
// check it before anything is built.
const MaxProcessors = 1 << 16

// ChannelKind classifies a channel for reporting and for the analytical
// model's per-class rates.
type ChannelKind uint8

// Channel kinds.
const (
	KindInjection ChannelKind = iota // PE -> first router
	KindEjection                     // last router -> PE
	KindUp                           // toward the root (fat-tree)
	KindDown                         // toward the leaves (fat-tree)
	KindLink                         // router -> router (direct networks)
)

// String returns a short name for the kind.
func (k ChannelKind) String() string {
	switch k {
	case KindInjection:
		return "inj"
	case KindEjection:
		return "ej"
	case KindUp:
		return "up"
	case KindDown:
		return "down"
	case KindLink:
		return "link"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Network is the topology contract consumed by the simulator: a network
// is its tables and its router. Every per-channel fact is a column of
// Tables and every processor's channels sit where its Stride puts them;
// the methods are the ones that compute. All channels have unit bandwidth
// and unit latency; a path's unloaded head latency is its channel count.
type Network interface {
	// Name identifies the network in reports, e.g. "bft-1024".
	Name() string
	// NumProcessors returns the number of traffic-injecting PEs.
	NumProcessors() int
	// NumChannels returns the number of directed channels.
	NumChannels() int
	// Tables returns the network's columns. They are built with the
	// network and shared; callers must not modify them.
	Tables() *Tables
	// NextGroup returns the arbitration group, named by its first
	// channel, for the next hop of a worm whose head has just traversed
	// channel cur and is destined for processor dst. It must not be
	// called once the head has reached dst (i.e. when cur is
	// Tables().Ejection(dst)).
	NextGroup(cur ChannelID, dst int) GroupID
	// PathLen returns the number of channels (including injection and
	// ejection) on a shortest src -> dst path.
	PathLen(src, dst int) int
}

// Tables is what a network says about its channels and processors: two
// bytes per channel and a stride, built once by its constructor
// (newTables) and read by every engine that simulates it and every report
// that classifies its channels.
//
// An arbitration group is a run of consecutive channels named by its
// first channel: Lead[ch] is ch's distance from that channel, so ch is in
// group ch − Lead[ch], and a group runs from a channel of lead 0 to the
// next. Processor p's injection channel is Injection(p) = p·Stride and
// its ejection channel Ejection(p) = p·Stride+1, each a group of its own;
// no other channel has either kind.
type Tables struct {
	// Kind[ch] classifies channel ch.
	Kind []ChannelKind
	// Lead[ch] is channel ch's distance from the first channel of its
	// arbitration group: 0 for that channel, one more for each after it.
	Lead []uint8
	// Stride is the distance from one processor's injection channel to
	// the next one's.
	Stride int32
}

// newTables checks a network's columns against the contract above: every
// group is a run, and the numProc processors' channels sit at the stride.
func newTables(kind []ChannelKind, lead []uint8, stride int32, numProc int) (*Tables, error) {
	if len(lead) != len(kind) {
		return nil, fmt.Errorf("topology: %d lead bytes for %d channels", len(lead), len(kind))
	}
	for ch, l := range lead {
		if l != 0 && (ch == 0 || l != lead[ch-1]+1) {
			return nil, fmt.Errorf("topology: channel %d leads its group by %d: "+
				"a group must be a run of channels, each one further from its first", ch, l)
		}
	}
	if numProc < 1 || stride < 2 || (numProc-1)*int(stride)+1 >= len(kind) {
		return nil, fmt.Errorf("topology: %d processors at stride %d do not fit %d channels",
			numProc, stride, len(kind))
	}
	t := &Tables{Kind: kind, Lead: lead, Stride: stride}
	leads := func(ch int) bool { return ch == len(lead) || lead[ch] == 0 }
	for p := 0; p < numProc; p++ {
		inj, ej := int(t.Injection(p)), int(t.Ejection(p))
		if kind[inj] != KindInjection || kind[ej] != KindEjection ||
			!leads(inj) || !leads(ej) || !leads(ej+1) {
			return nil, fmt.Errorf("topology: processor %d's channels %d (%v) and %d (%v) "+
				"are not an injection and an ejection channel in groups of their own",
				p, inj, kind[inj], ej, kind[ej])
		}
	}
	for ch, k := range kind {
		if (k == KindInjection || k == KindEjection) &&
			(ch/int(stride) >= numProc || ch%int(stride) != int(k-KindInjection)) {
			return nil, fmt.Errorf("topology: channel %d has kind %v but is no processor's", ch, k)
		}
	}
	return t, nil
}

// Injection returns processor p's injection channel, a group of its own.
func (t *Tables) Injection(p int) ChannelID { return ChannelID(p) * t.Stride }

// Ejection returns processor p's ejection channel, a group of its own.
func (t *Tables) Ejection(p int) ChannelID { return ChannelID(p)*t.Stride + 1 }

// Group returns group g's channels, the run [g, hi) up to the next
// channel that leads a group.
func (t *Tables) Group(g GroupID) (lo, hi ChannelID) {
	hi = g + 1
	for int(hi) < len(t.Lead) && t.Lead[hi] != 0 {
		hi++
	}
	return g, hi
}

// lazyName is a network's name, "<prefix><processors>", built on the
// first Name call and kept: a simulator Result reads it on every run, and
// a build keeps its fixed count of arrays.
type lazyName struct {
	once sync.Once
	s    string
}

func (n *lazyName) get(prefix string, numProc int) string {
	n.once.Do(func() { n.s = prefix + strconv.Itoa(numProc) })
	return n.s
}
