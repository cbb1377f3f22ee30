// Package topology builds the interconnection networks studied in the
// paper: the butterfly fat-tree of §3.1 (the paper's target network, with
// the exact port wiring of Figure 2) and a binary hypercube (the "other
// networks" the general model extends to, §4).
//
// A network is described as a set of unit-bandwidth directed channels
// (1 flit/cycle, as the paper assumes) plus arbitration groups: a group is
// a run of consecutive outgoing channels that worms contend for as a
// single logical multi-server resource. In the butterfly fat-tree the two up-links of a
// switch form one group of two servers — exactly the resource the paper
// models with an M/G/2 queue — while every other channel is a group of one.
package topology

import (
	"fmt"
	"strconv"
	"sync"
)

// ChannelID identifies a directed channel. IDs are dense in
// [0, NumChannels).
type ChannelID = int32

// GroupID identifies an arbitration group. IDs are dense in
// [0, NumGroups).
type GroupID = int32

// None marks the absence of a channel or group.
const None int32 = -1

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
// is its tables and its router. Every per-channel and per-processor fact
// is a column of Tables; the methods are the ones that compute. All
// channels have unit bandwidth and unit latency; a path's unloaded head
// latency is its channel count.
type Network interface {
	// Name identifies the network in reports, e.g. "bft-1024".
	Name() string
	// NumProcessors returns the number of traffic-injecting PEs.
	NumProcessors() int
	// NumChannels returns the number of directed channels.
	NumChannels() int
	// Tables returns the network's columns. They are built with the
	// network and shared; callers must not modify them. A network that
	// perturbs another (a fault-injecting test) returns an edited copy.
	Tables() *Tables
	// NextGroup returns the arbitration group for the next hop of a worm
	// whose head has just traversed channel cur and is destined for
	// processor dst. It must not be called once the head has reached dst
	// (i.e. when Tables().EjectsTo[cur] == dst).
	NextGroup(cur ChannelID, dst int) GroupID
	// PathLen returns the number of channels (including injection and
	// ejection) on a shortest src -> dst path.
	PathLen(src, dst int) int
	// AvgDistance returns the mean of PathLen over uniformly random
	// src != dst pairs (the paper's D̄).
	AvgDistance() float64
}

// Tables is what a network says about its channels and processors, as
// columns built once by its constructor (newTables) and read by every
// engine that simulates it and every report that classifies its channels.
//
// An arbitration group is a run of consecutive channels, and groups are
// numbered in channel order: GroupOf starts at 0 and steps by 0 or 1 from
// each channel to the next.
type Tables struct {
	// GroupOf[ch] is the arbitration group channel ch belongs to.
	GroupOf []GroupID
	// EjectsTo[ch] is the processor channel ch delivers to, or -1 if it
	// is not an ejection channel.
	EjectsTo []int32
	// Kind[ch] classifies channel ch.
	Kind []ChannelKind
	// Inject[p] is the channel from processor p into the network.
	Inject []ChannelID
	// GroupOff[g] is the first channel of group g; GroupOff[NumGroups]
	// is the number of channels.
	GroupOff []int32
}

// newTables takes a network's columns and derives where each arbitration
// group starts from groupOf, which must number its groups as runs.
func newTables(groupOf []GroupID, ejectsTo []int32, kind []ChannelKind, inject []ChannelID) (*Tables, error) {
	nGr := 0
	if len(groupOf) > 0 {
		nGr = max(0, int(groupOf[len(groupOf)-1])+1)
	}
	off := make([]int32, 0, nGr+1)
	for ch, g := range groupOf {
		switch next := GroupID(len(off)); {
		case g == next:
			off = append(off, int32(ch))
		case g != next-1 || ch == 0:
			return nil, fmt.Errorf("topology: channel %d is in group %d after group %d: "+
				"a group must be a run of channels, numbered in channel order", ch, g, next-1)
		}
	}
	off = append(off, int32(len(groupOf)))
	return &Tables{GroupOf: groupOf, EjectsTo: ejectsTo, Kind: kind, Inject: inject, GroupOff: off}, nil
}

// Group returns group g's channels, the run [lo, hi).
func (t *Tables) Group(g GroupID) (lo, hi ChannelID) {
	return t.GroupOff[g], t.GroupOff[g+1]
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
