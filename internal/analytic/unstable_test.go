package analytic

import (
	"testing"

	"repro/internal/core"
)

// unstableTexts pins the error text past saturation, byte for byte, as
// the models gave it when every constructor built its error labels up
// front: per family and variant, at 1.02× and 4× the model's own Eq. 26
// load, from Latency, ChannelStats and Resolve (the compiled graph's
// core.Workspace.Resolve). Only the paper fat-tree's Latency, the closed
// form, labels the class "<class>@<model>".
var unstableTexts = []struct {
	family                   string
	size, k                  int
	variant                  string
	frac                     float64
	latency, stats, resolved string
}{
	{"bft", 64, 0, "paper", 1.02, "core: class up<1,2>@bft-64/s=16 saturated (rho=1.1333)", "core: class up<1,2> saturated (rho=1.1333)", "core: class up<1,2> saturated (rho=1.1333)"},
	{"bft", 64, 0, "paper", 4, "core: class down<2,1>@bft-64/s=16 saturated (rho=1.7837)", "core: class down<2,1> saturated (rho=1.7837)", "core: class down<2,1> saturated (rho=1.7837)"},
	{"bft", 64, 0, "no-blocking", 1.02, "core: class up<0,1> saturated (rho=5.8456)", "core: class up<0,1> saturated (rho=5.8456)", "core: class up<0,1> saturated (rho=5.8456)"},
	{"bft", 64, 0, "no-blocking", 4, "core: class down<2,1> saturated (rho=1.5459)", "core: class down<2,1> saturated (rho=1.5459)", "core: class down<2,1> saturated (rho=1.5459)"},
	{"bft", 64, 0, "single-server", 1.02, "core: class up<0,1> saturated (rho=1.5871)", "core: class up<0,1> saturated (rho=1.5871)", "core: class up<0,1> saturated (rho=1.5871)"},
	{"bft", 64, 0, "single-server", 4, "core: class down<2,1> saturated (rho=1.4940)", "core: class down<2,1> saturated (rho=1.4940)", "core: class down<2,1> saturated (rho=1.4940)"},
	{"bft", 64, 0, "pre-erratum", 1.02, "core: class up<2,3> saturated (rho=1.0540)", "core: class up<2,3> saturated (rho=1.0540)", "core: class up<2,3> saturated (rho=1.0540)"},
	{"bft", 64, 0, "pre-erratum", 4, "core: class down<2,1> saturated (rho=2.0130)", "core: class down<2,1> saturated (rho=2.0130)", "core: class down<2,1> saturated (rho=2.0130)"},
	{"bft", 4096, 0, "paper", 1.02, "core: class up<4,5>@bft-4096/s=16 saturated (rho=1.0881)", "core: class up<4,5> saturated (rho=1.0881)", "core: class up<4,5> saturated (rho=1.0881)"},
	{"bft", 4096, 0, "paper", 4, "core: class down<5,4>@bft-4096/s=16 saturated (rho=2.4738)", "core: class down<5,4> saturated (rho=2.4738)", "core: class down<5,4> saturated (rho=2.4738)"},
	{"bft", 4096, 0, "no-blocking", 1.02, "core: class up<3,4> saturated (rho=1.6974)", "core: class up<3,4> saturated (rho=1.6974)", "core: class up<3,4> saturated (rho=1.6974)"},
	{"bft", 4096, 0, "no-blocking", 4, "core: class down<5,4> saturated (rho=2.3910)", "core: class down<5,4> saturated (rho=2.3910)", "core: class down<5,4> saturated (rho=2.3910)"},
	{"bft", 4096, 0, "single-server", 1.02, "core: class up<2,3> saturated (rho=1.4043)", "core: class up<2,3> saturated (rho=1.4043)", "core: class up<2,3> saturated (rho=1.4043)"},
	{"bft", 4096, 0, "single-server", 4, "core: class down<5,4> saturated (rho=1.7504)", "core: class down<5,4> saturated (rho=1.7504)", "core: class down<5,4> saturated (rho=1.7504)"},
	{"bft", 4096, 0, "pre-erratum", 1.02, "core: class up<5,6> saturated (rho=1.0567)", "core: class up<5,6> saturated (rho=1.0567)", "core: class up<5,6> saturated (rho=1.0567)"},
	{"bft", 4096, 0, "pre-erratum", 4, "core: class down<5,4> saturated (rho=3.1549)", "core: class down<5,4> saturated (rho=3.1549)", "core: class down<5,4> saturated (rho=3.1549)"},
	{"hypercube", 6, 0, "paper", 1.02, "core: class inject saturated (rho=1.0610)", "core: class inject saturated (rho=1.0610)", "core: class inject saturated (rho=1.0610)"},
	{"hypercube", 6, 0, "paper", 4, "core: class eject saturated (rho=1.9228)", "core: class eject saturated (rho=1.9228)", "core: class eject saturated (rho=1.9228)"},
	{"hypercube", 6, 0, "no-blocking", 1.02, "core: class inject saturated (rho=1.0854)", "core: class inject saturated (rho=1.0854)", "core: class inject saturated (rho=1.0854)"},
	{"hypercube", 6, 0, "no-blocking", 4, "core: class eject saturated (rho=1.4536)", "core: class eject saturated (rho=1.4536)", "core: class eject saturated (rho=1.4536)"},
	{"hypercube", 6, 0, "single-server", 1.02, "core: class inject saturated (rho=1.0610)", "core: class inject saturated (rho=1.0610)", "core: class inject saturated (rho=1.0610)"},
	{"hypercube", 6, 0, "single-server", 4, "core: class eject saturated (rho=1.9228)", "core: class eject saturated (rho=1.9228)", "core: class eject saturated (rho=1.9228)"},
	{"hypercube", 6, 0, "pre-erratum", 1.02, "core: class inject saturated (rho=1.0610)", "core: class inject saturated (rho=1.0610)", "core: class inject saturated (rho=1.0610)"},
	{"hypercube", 6, 0, "pre-erratum", 4, "core: class eject saturated (rho=1.9228)", "core: class eject saturated (rho=1.9228)", "core: class eject saturated (rho=1.9228)"},
	{"torus", 3, 4, "paper", 1.02, "core: class dim0 saturated (rho=1.1939)", "core: class dim0 saturated (rho=1.1939)", "core: class dim0 saturated (rho=1.1939)"},
	{"torus", 3, 4, "paper", 4, "core: class dim0 saturated (rho=2.2840)", "core: class dim0 saturated (rho=2.2840)", "core: class dim0 saturated (rho=2.2840)"},
	{"torus", 3, 4, "no-blocking", 1.02, "core: class dim0 saturated (rho=4.7292)", "core: class dim0 saturated (rho=4.7292)", "core: class dim0 saturated (rho=4.7292)"},
	{"torus", 3, 4, "no-blocking", 4, "core: class dim0 saturated (rho=1.3952)", "core: class dim0 saturated (rho=1.3952)", "core: class dim0 saturated (rho=1.3952)"},
	{"torus", 3, 4, "single-server", 1.02, "core: class dim0 saturated (rho=1.1939)", "core: class dim0 saturated (rho=1.1939)", "core: class dim0 saturated (rho=1.1939)"},
	{"torus", 3, 4, "single-server", 4, "core: class dim0 saturated (rho=2.2840)", "core: class dim0 saturated (rho=2.2840)", "core: class dim0 saturated (rho=2.2840)"},
	{"torus", 3, 4, "pre-erratum", 1.02, "core: class dim0 saturated (rho=1.1939)", "core: class dim0 saturated (rho=1.1939)", "core: class dim0 saturated (rho=1.1939)"},
	{"torus", 3, 4, "pre-erratum", 4, "core: class dim0 saturated (rho=2.2840)", "core: class dim0 saturated (rho=2.2840)", "core: class dim0 saturated (rho=2.2840)"},
}

func TestUnstableErrorText(t *testing.T) {
	opts := map[string]core.Options{}
	for _, v := range goldenVariants {
		opts[v.name] = v.opt
	}
	for _, c := range unstableTexts {
		var m *Model
		switch opt := opts[c.variant]; c.family {
		case "bft":
			m = &MustFatTreeModel(c.size, 16, opt).Model
		case "hypercube":
			m = &MustHypercubeModel(c.size, 16, opt).Model
		default:
			m = &MustTorusModel(c.k, c.size, 16, opt).Model
		}
		sat, err := m.SaturationLoad()
		if err != nil {
			t.Fatalf("%s %s: %v", m.Name(), c.variant, err)
		}
		lambda0 := c.frac * sat / 16
		_, errL := m.Latency(lambda0)
		_, errS := m.ChannelStats(nil, lambda0)
		ws := core.AcquireWorkspace()
		errR := m.Resolve(ws, lambda0)
		ws.Release()
		for _, got := range []struct {
			what string
			err  error
			want string
		}{{"Latency", errL, c.latency}, {"ChannelStats", errS, c.stats}, {"Resolve", errR, c.resolved}} {
			if got.err == nil || got.err.Error() != got.want || !core.IsUnstable(got.err) {
				t.Errorf("%s %s at %v× saturation: %s error %v, want %q", m.Name(), c.variant, c.frac, got.what, got.err, got.want)
			}
		}
	}
	if _, err := MustFatTreeModel(64, 16, core.Options{}).Latency(-1); err == nil || err.Error() != "analytic: bad arrival rate -1" {
		t.Errorf("Latency(-1): %v, want analytic: bad arrival rate -1", err)
	}
}

// TestModelNames: a model's name is the instance and fmt's %g of the
// message length, as the names were formatted with fmt.Sprintf.
func TestModelNames(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{MustFatTreeModel(1024, 16, core.Options{}).Name(), "bft-1024/s=16"},
		{MustFatTreeModel(4, 0.5, core.Options{}).Name(), "bft-4/s=0.5"},
		{MustFatTreeModel(64, 1e21, core.Options{}).Name(), "bft-64/s=1e+21"},
		{MustFatTreeModel(64, 1234567, core.Options{}).Name(), "bft-64/s=1.234567e+06"},
		{MustHypercubeModel(6, 32, core.Options{}).Name(), "hcube-64/s=32"},
		{MustTorusModel(4, 3, 8, core.Options{}).Name(), "torus-4ary3cube/s=8"},
	} {
		if c.got != c.want {
			t.Errorf("name %q, want %q", c.got, c.want)
		}
	}
}
