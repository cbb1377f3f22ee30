package traffic

import "testing"

func TestRate(t *testing.T) {
	for _, s := range Sources() {
		if s.Rate() <= 0 {
			t.Fatal(s.Rate())
		}
	}
}
