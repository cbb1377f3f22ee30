// Package wire holds a MarshalJSON that only encoding/json calls.
package wire

import "strconv"

type Point struct{ Latency float64 }

func (p Point) MarshalJSON() ([]byte, error) {
	return strconv.AppendFloat([]byte(`{"latency":`), p.Latency, 'g', -1, 64), nil
}
