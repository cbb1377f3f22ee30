// Command prog is the fixture's one program: the door guard's tests plant
// doors around what it calls.
package main

import (
	"encoding/json"
	"fmt"

	"doorfixture/race"
	"doorfixture/registry"
	"doorfixture/shape"
	"doorfixture/stats"
	"doorfixture/traffic"
	"doorfixture/wire"
)

func main() {
	var s stats.Stream
	var b stats.BatchMeans
	s.Add(1)
	b.Add(1)
	fmt.Println(s.N(), b.Mean())

	for _, src := range traffic.Sources() {
		fmt.Println(src.Next())
	}

	var nets registry.Registry[int]
	fmt.Println(nets.Get("bft-64"))

	fmt.Println(shape.Total())

	out, _ := json.Marshal(wire.Point{Latency: 1})
	fmt.Println(string(out), race.Mode())
}
