// Package shape holds a method that programs reach only through an
// interface call.
package shape

type Shape interface{ Area() float64 }

type square struct{ side float64 }

func (s square) Area() float64 { return s.side * s.side }

func Total() float64 {
	var total float64
	for _, s := range []Shape{square{2}} {
		total += s.Area()
	}
	return total
}
