package traffic

import (
	"fmt"
	"math"
)

// renewalSource is the shared machinery of the renewal-process sources:
// interarrival gaps are drawn i.i.d. by gap, and the stream is the running
// sum. gap is a plain function over the source's own fields rather than a
// closure, so a slab of sources costs no allocation per source.
type renewalSource struct {
	rng          *RNG
	rate         float64
	next         float64
	shape, scale float64
	gap          func(*renewalSource) float64
}

func (s *renewalSource) init(rate, shape, scale float64, rng *RNG, gap func(*renewalSource) float64) {
	*s = renewalSource{rng: rng, rate: rate, next: math.Inf(1), shape: shape, scale: scale, gap: gap}
	if rate > 0 {
		s.next = gap(s)
	}
}

// Rate returns the configured mean arrival rate.
func (s *renewalSource) Rate() float64 { return s.rate }

// Peek returns the time of the next arrival without consuming it.
func (s *renewalSource) Peek() float64 { return s.next }

// PopBefore consumes and returns the next arrival time if it is strictly
// before limit; otherwise it returns (0, false).
func (s *renewalSource) PopBefore(limit float64) (float64, bool) {
	if s.next >= limit {
		return 0, false
	}
	t := s.next
	s.next += s.gap(s)
	return t, true
}

func checkRate(kind string, rate float64) error {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 1) {
		return fmt.Errorf("traffic: %s: arrival rate must be finite and non-negative, got %v", kind, rate)
	}
	return nil
}

// GammaSource is a renewal process with Gamma(shape) interarrivals of
// mean 1/rate. Its squared coefficient of variation is 1/shape: shape>1
// is smoother than Poisson, shape<1 burstier. shape=1 degenerates to
// Poisson (with a different, equally valid, draw sequence).
type GammaSource struct{ renewalSource }

// Init sets s up, in caller-owned storage, as a Gamma-interarrival
// source with the given mean rate (messages/cycle) and shape.
func (s *GammaSource) Init(rate, shape float64, rng *RNG) error {
	if err := checkRate("gamma", rate); err != nil {
		return err
	}
	if shape <= 0 || math.IsNaN(shape) {
		return fmt.Errorf("traffic: gamma: shape must be > 0, got %v", shape)
	}
	// mean shape*scale = 1/rate
	s.init(rate, shape, 1/(shape*rate), rng, gammaGap)
	return nil
}

func gammaGap(s *renewalSource) float64 { return s.rng.Gamma(s.shape) * s.scale }

// WeibullSource is a renewal process with Weibull(shape) interarrivals
// of mean 1/rate. shape<1 gives a heavy-ish tail (bursty), shape>1 a
// light tail; shape=1 degenerates to Poisson.
type WeibullSource struct{ renewalSource }

// Init sets s up, in caller-owned storage, as a Weibull-interarrival
// source with the given mean rate (messages/cycle) and shape.
func (s *WeibullSource) Init(rate, shape float64, rng *RNG) error {
	if err := checkRate("weibull", rate); err != nil {
		return err
	}
	if shape <= 0 || math.IsNaN(shape) {
		return fmt.Errorf("traffic: weibull: shape must be > 0, got %v", shape)
	}
	// E[X] = scale * Γ(1+1/k)  =>  scale = 1/(rate * Γ(1+1/k)).
	s.init(rate, shape, 1/(rate*math.Gamma(1+1/shape)), rng, weibullGap)
	return nil
}

func weibullGap(s *renewalSource) float64 {
	u := 1 - s.rng.Float64() // (0,1]
	return s.scale * math.Pow(-math.Log(u), 1/s.shape)
}

// MMPPSource is a two-state Markov-modulated Poisson process (an
// interrupted Poisson process): the source alternates between an ON
// state emitting Poisson arrivals at rate/onFrac and a silent OFF state,
// with exponentially distributed sojourns chosen so the mean rate is
// rate and the mean ON burst lasts burstCycles cycles. onFrac=1
// degenerates to plain Poisson.
type MMPPSource struct {
	rng      *RNG
	rate     float64 // mean rate over both states
	lambdaOn float64 // arrival rate while ON
	rOn      float64 // hazard ON->OFF (1/mean burst)
	rOff     float64 // hazard OFF->ON (1/mean gap)
	t        float64 // cursor: time of last arrival or state entry
	onEnd    float64 // end of the current ON period (-1 while OFF)
	next     float64
}

// Init sets s up, in caller-owned storage, as an on-off bursty source:
// mean rate (messages/cycle), onFrac the stationary fraction of time
// spent ON (0 < onFrac <= 1), burstCycles the mean ON duration in cycles.
func (s *MMPPSource) Init(rate, onFrac, burstCycles float64, rng *RNG) error {
	if err := checkRate("mmpp", rate); err != nil {
		return err
	}
	if onFrac <= 0 || onFrac > 1 || math.IsNaN(onFrac) {
		return fmt.Errorf("traffic: mmpp: on_frac must be in (0, 1], got %v", onFrac)
	}
	if burstCycles <= 0 || math.IsNaN(burstCycles) {
		return fmt.Errorf("traffic: mmpp: burst_cycles must be > 0, got %v", burstCycles)
	}
	*s = MMPPSource{
		rng:      rng,
		rate:     rate,
		lambdaOn: rate / onFrac,
		rOn:      1 / burstCycles,
		rOff:     onFrac / (burstCycles * (1 - onFrac)), // 1 / mean OFF
		next:     math.Inf(1),
	}
	if rate == 0 {
		return nil
	}
	if onFrac == 1 {
		s.rOff = math.Inf(1) // OFF periods have zero length
	}
	// Start in the stationary state; sojourns are memoryless, so the
	// residual is a fresh exponential.
	if rng.Float64() < onFrac {
		s.onEnd = s.t + rng.Exp(s.rOn)
	} else {
		s.t += rng.Exp(s.rOff)
		s.onEnd = s.t + rng.Exp(s.rOn)
	}
	s.next = s.advance()
	return nil
}

// advance walks the on/off state machine to the next arrival time.
func (s *MMPPSource) advance() float64 {
	for {
		gap := s.rng.Exp(s.lambdaOn)
		if s.t+gap <= s.onEnd {
			s.t += gap
			return s.t
		}
		// The candidate falls past the end of this ON period: discard it,
		// jump over the OFF gap, and redraw inside the next burst.
		s.t = s.onEnd
		if !math.IsInf(s.rOff, 1) {
			s.t += s.rng.Exp(s.rOff)
		}
		s.onEnd = s.t + s.rng.Exp(s.rOn)
	}
}

// Rate returns the configured mean arrival rate.
func (s *MMPPSource) Rate() float64 { return s.rate }

// Peek returns the time of the next arrival without consuming it.
func (s *MMPPSource) Peek() float64 { return s.next }

// PopBefore consumes and returns the next arrival time if it is strictly
// before limit; otherwise it returns (0, false).
func (s *MMPPSource) PopBefore(limit float64) (float64, bool) {
	if s.next >= limit {
		return 0, false
	}
	t := s.next
	s.next = s.advance()
	return t, true
}
