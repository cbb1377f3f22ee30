// Package traffic plants an interface method that no program calls:
// Source.Rate, with its two implementations.
package traffic

type Source interface {
	Next() int
	Rate() float64
}

type uniform struct{ n int }

func (u *uniform) Next() int { u.n++; return u.n }

func (u *uniform) Rate() float64 { return 1 }

type burst struct{}

func (burst) Next() int { return 8 }

func (burst) Rate() float64 { return 0.5 }

func Sources() []Source { return []Source{&uniform{}, burst{}} }
