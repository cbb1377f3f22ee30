package analytic

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// goldenVariants are the four ablation variants every sweep and bench
// grid uses.
var goldenVariants = []struct {
	name string
	opt  core.Options
}{
	{"paper", core.Options{}},
	{"no-blocking", core.Options{NoBlockingCorrection: true}},
	{"single-server", core.Options{SingleServerGroups: true}},
	{"pre-erratum", core.Options{NoPairRateCorrection: true}},
}

// goldenFracs are the operating points, as fractions of each model's own
// Eq. 26 saturation load: light, knee, up to 0.98 of saturation, and past
// it (where the models must report the same unstable class and ρ).
var goldenFracs = []float64{0, 0.1, 0.5, 0.9, 0.98, 1.02, 1.5, 4}

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// goldenErr renders an error as its unstable class and ρ, or its text.
func goldenErr(err error) string {
	var ue *core.UnstableError
	if errors.As(err, &ue) {
		return "unstable class=" + ue.Class + " rho=" + hexf(ue.Rho)
	}
	return "error " + err.Error()
}

// goldenDump renders every output of the analytic layer over bft,
// hypercube and torus × the four variants in hex floats, so comparing the
// text is comparing the bits.
func goldenDump(t *testing.T) string {
	var b strings.Builder
	build := func(family string, size, k int, flits float64, opt core.Options) *Model {
		switch family {
		case "bft":
			return &MustFatTreeModel(size, flits, opt).Model
		case "hypercube":
			return &MustHypercubeModel(size, flits, opt).Model
		default:
			return &MustTorusModel(k, size, flits, opt).Model
		}
	}
	instances := []struct {
		family  string
		size, k int
	}{
		{"bft", 4, 0}, {"bft", 16, 0}, {"bft", 64, 0}, {"bft", 1024, 0}, {"bft", 4096, 0},
		{"hypercube", 1, 0}, {"hypercube", 3, 0}, {"hypercube", 6, 0}, {"hypercube", 8, 0},
		{"torus", 1, 3}, {"torus", 2, 4}, {"torus", 3, 4}, {"torus", 2, 8}, {"torus", 3, 5},
	}
	for _, in := range instances {
		for _, flits := range []float64{8, 32} {
			for _, v := range goldenVariants {
				m := build(in.family, in.size, in.k, flits, v.opt)
				sat, err := m.SaturationLoad()
				fmt.Fprintf(&b, "%s variant=%s dist=%s", m.Name(), v.name, hexf(m.AvgDist()))
				if err != nil {
					fmt.Fprintf(&b, " sat-error %v\n", err)
					continue
				}
				fmt.Fprintf(&b, " sat=%s\n", hexf(sat))
				for _, frac := range goldenFracs {
					lambda0 := frac * sat / flits
					fmt.Fprintf(&b, "  lambda0=%s", hexf(lambda0))
					lat, err := m.Latency(lambda0)
					if err != nil {
						fmt.Fprintf(&b, " %s\n", goldenErr(err))
					} else {
						fmt.Fprintf(&b, " total=%s wait=%s service=%s dist=%s\n",
							hexf(lat.Total), hexf(lat.WaitInj), hexf(lat.ServiceInj), hexf(lat.AvgDist))
					}
					if in.family != "bft" {
						continue
					}
					stats, err := m.ChannelStats(nil, lambda0)
					if err != nil {
						fmt.Fprintf(&b, "    stats %s\n", goldenErr(err))
						continue
					}
					for _, st := range stats {
						fmt.Fprintf(&b, "    %s m=%d rate=%s service=%s wait=%s rho=%s\n",
							st.Name, st.Servers, hexf(st.Rate), hexf(st.Service), hexf(st.Wait), hexf(st.Rho))
					}
				}
			}
		}
	}
	return b.String()
}

// TestGoldenBitIdentity pins Latency, ChannelStats, SaturationLoad and the
// unstable verdicts bit for bit. Regenerate with -update only when a
// change is meant to move results, keep the previous file beside it, and
// check the move against it the way TestGoldenAgreesWithFixedPoint does.
func TestGoldenBitIdentity(t *testing.T) {
	const path = "testdata/golden.txt"
	got := goldenDump(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(data)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("golden line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
}

// TestGoldenAgreesWithFixedPoint bounds what resolving acyclic graphs in
// one ordered pass moved, against testdata/golden-fixedpoint.txt, the
// outputs of the damped fixed point it replaced: every saturation load
// and header is unchanged, the stable/unstable verdict matches line by
// line, every stable number agrees to 1e-9 relative (the fixed point's
// tolerance is 1e-10 absolute), and every torus line — the cyclic graphs,
// still solved by the fixed point — is unchanged. Unstable lines may name
// another class and ρ: the fixed point reported the most-loaded class of
// the iterate it diverged on, the ordered pass the first class it finds
// saturated.
func TestGoldenAgreesWithFixedPoint(t *testing.T) {
	read := func(path string) []string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(string(data), "\n")
	}
	now, old := read("testdata/golden.txt"), read("testdata/golden-fixedpoint.txt")
	if len(now) != len(old) {
		t.Fatalf("golden has %d lines, the fixed point's %d", len(now), len(old))
	}
	var cyclic bool
	var maxRel float64
	movedUnstable := 0
	for i := range now {
		line, was := now[i], old[i]
		if !strings.HasPrefix(line, " ") {
			cyclic = strings.HasPrefix(line, "torus-")
		}
		if line == was {
			continue
		}
		unstable := strings.Contains(line, " unstable ")
		switch {
		case cyclic || !strings.HasPrefix(line, " "):
			t.Errorf("line %d moved:\n got %s\nwant %s", i+1, line, was)
		case unstable != strings.Contains(was, " unstable "):
			t.Errorf("line %d changed its verdict:\n got %s\nwant %s", i+1, line, was)
		case unstable:
			movedUnstable++
		default:
			rel, err := goldenLineRelDiff(line, was)
			if err != nil || rel > 1e-9 {
				t.Errorf("line %d moved by %g relative (%v):\n got %s\nwant %s", i+1, rel, err, line, was)
			}
			maxRel = math.Max(maxRel, rel)
		}
	}
	t.Logf("stable numbers moved by at most %.3g relative; %d unstable lines name another class or ρ", maxRel, movedUnstable)
}

// goldenLineRelDiff is the largest relative difference between the
// hex-float values of two golden lines whose other tokens are equal.
func goldenLineRelDiff(a, b string) (float64, error) {
	at, bt := strings.Fields(a), strings.Fields(b)
	if len(at) != len(bt) {
		return math.Inf(1), fmt.Errorf("%d fields, want %d", len(at), len(bt))
	}
	var worst float64
	for i := range at {
		ak, av, _ := strings.Cut(at[i], "=")
		bk, bv, _ := strings.Cut(bt[i], "=")
		x, errA := strconv.ParseFloat(av, 64)
		y, errB := strconv.ParseFloat(bv, 64)
		if ak != bk || errA != nil || errB != nil {
			if at[i] != bt[i] {
				return math.Inf(1), fmt.Errorf("field %q, want %q", at[i], bt[i])
			}
			continue
		}
		worst = math.Max(worst, relDiff(x, y))
	}
	return worst, nil
}
