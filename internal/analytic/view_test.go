package analytic

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// viewFamilies are FuzzModelView's networks: every fat-tree from 16 to
// 4096 processors, every hypercube from 3 to 10 dimensions, and the 4-ary
// 2-, 3- and 4-cubes.
var viewFamilies = []struct {
	name  string
	sizes []int
	build func(size int, flits float64, opt core.Options) *Model
}{
	{"bft", []int{16, 64, 256, 1024, 4096}, func(size int, flits float64, opt core.Options) *Model {
		return &MustFatTreeModel(size, flits, opt).Model
	}},
	{"hypercube", []int{3, 4, 5, 6, 7, 8, 9, 10}, func(size int, flits float64, opt core.Options) *Model {
		return &MustHypercubeModel(size, flits, opt).Model
	}},
	{"torus", []int{2, 3, 4}, func(size int, flits float64, opt core.Options) *Model {
		return &MustTorusModel(4, size, flits, opt).Model
	}},
}

// FuzzModelView: a view taken from a network built at another message
// length or variant is the model the constructor builds for the view's
// own, bit for bit — name, D̄, message length, the Eq. 26 saturation load,
// and Predict, Latency and ChannelStats at 8 loads up to 0.98 of
// saturation. Floats are compared through %v, which prints the shortest
// decimal that parses back to the same bits.
func FuzzModelView(f *testing.F) {
	for fam := range viewFamilies {
		for v := uint8(0); v < uint8(len(goldenVariants)); v++ {
			f.Add(uint8(fam), uint8(v), uint8(15), uint8(3-v), uint8(31), v)
			f.Add(uint8(fam), uint8(v+1), uint8(0), v, uint8(127), uint8(3-v))
		}
	}
	f.Fuzz(func(t *testing.T, fam, size, srcFlits, srcVariant, flits, variant uint8) {
		family := viewFamilies[int(fam)%len(viewFamilies)]
		n := family.sizes[int(size)%len(family.sizes)]
		s := float64(1 + int(flits)%128)
		opt := goldenVariants[int(variant)%len(goldenVariants)].opt
		src := family.build(n, float64(1+int(srcFlits)%128), goldenVariants[int(srcVariant)%len(goldenVariants)].opt)
		view, err := src.View(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		fresh := family.build(n, s, opt)
		label := fmt.Sprintf("%s %+v viewed from %s %+v", fresh.Name(), opt, src.Name(), src.opt)
		same := func(what string, got, want any) {
			t.Helper()
			if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
				t.Fatalf("%s: %s: view %s, fresh %s", label, what, g, w)
			}
		}
		same("name", view.Name(), fresh.Name())
		same("D̄", view.AvgDist(), fresh.AvgDist())
		same("message length", view.MsgFlits(), fresh.MsgFlits())
		sat, satErr := view.SaturationLoad()
		wantSat, wantSatErr := fresh.SaturationLoad()
		same("saturation load", []any{sat, satErr}, []any{wantSat, wantSatErr})
		for i := 1; i <= 8; i++ {
			lambda0 := 0.98 * wantSat * float64(i) / 8 / s
			lat, saturated, err := predict(&view, lambda0)
			wantLat, wantSaturated, wantErr := predict(fresh, lambda0)
			same(fmt.Sprintf("Predict(%v)", lambda0), []any{lat, saturated, err}, []any{wantLat, wantSaturated, wantErr})
			lat, err = view.Latency(lambda0)
			wantLat, wantErr = fresh.Latency(lambda0)
			same(fmt.Sprintf("Latency(%v)", lambda0), []any{lat, err}, []any{wantLat, wantErr})
			stats, err := view.ChannelStats(nil, lambda0)
			wantStats, wantErr := fresh.ChannelStats(nil, lambda0)
			same(fmt.Sprintf("ChannelStats(%v)", lambda0), []any{stats, err}, []any{wantStats, wantErr})
		}
	})
}

// TestViewRejectsBadMessageLength: View refuses what the constructors
// refuse.
func TestViewRejectsBadMessageLength(t *testing.T) {
	m := MustFatTreeModel(64, 16, core.Options{})
	for _, s := range []float64{0, -1} {
		if _, err := m.View(s, core.Options{}); err == nil {
			t.Errorf("View(%v) succeeded", s)
		}
		if _, err := NewFatTreeModel(64, s, core.Options{}); err == nil {
			t.Errorf("NewFatTreeModel(64, %v) succeeded", s)
		}
	}
}
