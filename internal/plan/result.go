package plan

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/eval"
	"repro/internal/series"
)

// Candidate is one point of the discrete design space, annotated as the
// search learns about it. Float fields the search has not (or cannot)
// fill are NaN.
type Candidate struct {
	// Topology, MsgFlits and Policy identify the candidate.
	Topology eval.Topology
	MsgFlits int
	Policy   string
	// Cost is the weighted cost-model value.
	Cost float64
	// SaturationLoad is the model's Eq. 26 operating point in
	// flits/cycle/processor (NaN when the executing backend does not
	// describe curves).
	SaturationLoad float64
	// MaxLoad is the refined answer: the largest load satisfying every
	// constraint (stability, latency SLO, utilization cap), located by
	// bisection to the spec's relative tolerance.
	MaxLoad float64
	// OperatingLoad is the reported operating point: min_load when the
	// spec requires one, else operating_frac × MaxLoad. Latency is the
	// model latency there.
	OperatingLoad float64
	Latency       float64
	// Pruned marks candidates eliminated by the coarse grid (or a
	// constraint); PruneReason says why.
	Pruned      bool
	PruneReason string
	// Frontier marks membership in the Pareto frontier over
	// (Cost, Latency, MaxLoad).
	Frontier bool
	// Certified reports the simulator sustained the operating point
	// (finite latency, not saturated). Sim/SimCI/SimSaturated are the
	// measurement; CertifyNote explains a skipped certification.
	Certified    bool
	CertifyNote  string
	Sim, SimCI   float64
	SimSaturated bool
	// BoundMax is the network-calculus worst-case latency at the
	// operating point when the plan constrains max_worstcase_latency
	// (+Inf past stability, NaN when no bound was computed); BoundNA
	// marks candidates with no (σ,ρ) envelope, which a hard-SLO plan
	// prunes.
	BoundMax float64
	BoundNA  bool
	// Probes counts the refinement evaluations this candidate consumed.
	Probes int
	// CalibVerdict is the calibration trust-gate outcome at the operating
	// region when the spec enables calibration-gated certification:
	// calib.VerdictTrusted (analytic answer accepted, sim skipped),
	// calib.VerdictEscalated (model error above threshold, sim forced) or
	// calib.VerdictUncalibrated (coverage too thin to judge, sim forced).
	// Empty when the plan ran without a calibration gate. CalibMAPE and
	// CalibPairs are the region's error record behind the verdict
	// (CalibMAPE NaN when the region had no pairs).
	CalibVerdict string
	CalibMAPE    float64
	CalibPairs   int
}

// Key labels the candidate in traces, errors and tie-breaks, e.g.
// "bft-256/s=16/pairqueue". It addresses nothing: the planner finds a
// candidate's coarse rows by position (sweep.Result.ByCurve).
func (c Candidate) Key() string {
	return c.Topology.String() + "/s=" + strconv.Itoa(c.MsgFlits) + "/" + c.Policy
}

// RelErr returns |sim−model|/model at the operating point, or NaN when
// either side is missing.
func (c Candidate) RelErr() float64 {
	if math.IsNaN(c.Sim) || math.IsNaN(c.Latency) || math.IsInf(c.Latency, 0) {
		return math.NaN()
	}
	return math.Abs(c.Sim-c.Latency) / c.Latency
}

// Stats accounts for the search's work — the quantities that justify
// its existence against a full grid.
type Stats struct {
	// Candidates / Pruned / Refined / FrontierSize / Certified count the
	// design points through the funnel.
	Candidates   int `json:"candidates"`
	Pruned       int `json:"pruned"`
	Refined      int `json:"refined"`
	FrontierSize int `json:"frontier_size"`
	Certified    int `json:"certified"`
	// CoarseCells is the size of the analytic prune grid (CacheHits of
	// it served warm), Probes the refinement evaluations on top, so
	// CoarseCells+Probes is the total analytic evaluation count.
	CoarseCells     int `json:"coarse_cells"`
	CoarseCacheHits int `json:"coarse_cache_hits"`
	Probes          int `json:"probes"`
	// SimEvals counts certification simulations — frontier only, which
	// is the planner's headline saving over a simulated grid.
	SimEvals int `json:"sim_evals"`
	// Trusted / Escalated / Uncalibrated count the calibration trust-gate
	// verdicts over the frontier when the spec enables the gate. Trusted
	// candidates skipped their certification simulation, so Trusted is
	// also the sim-eval saving against an always-escalate planner.
	Trusted      int `json:"trusted,omitempty"`
	Escalated    int `json:"escalated,omitempty"`
	Uncalibrated int `json:"uncalibrated,omitempty"`
}

// AnalyticEvals is the total number of analytic evaluations the search
// issued (coarse grid plus refinement probes).
func (s Stats) AnalyticEvals() int { return s.CoarseCells + s.Probes }

// Result is one executed plan.
type Result struct {
	// Spec is the (defaults-resolved) question.
	Spec Spec
	// Candidates holds every design point in enumeration order, pruned
	// ones included.
	Candidates []Candidate
	// Frontier is the Pareto frontier over (cost, latency, sustainable
	// load), ranked by the spec's objective, sim-certified unless the
	// spec skipped it.
	Frontier []Candidate
	Stats    Stats
}

// Best returns the frontier's top candidate under the objective, or nil
// when the frontier is empty (everything pruned).
func (r *Result) Best() *Candidate {
	if len(r.Frontier) == 0 {
		return nil
	}
	return &r.Frontier[0]
}

// Phases of a streamed plan (Update.Phase).
const (
	// PhasePrune: the candidate was eliminated by the coarse grid.
	PhasePrune = "prune"
	// PhaseRefine: the candidate's knee was located by bisection.
	PhaseRefine = "refine"
	// PhaseCertify: the candidate's sim certification finished.
	PhaseCertify = "certify"
	// PhaseFrontier: one final frontier record, in objective order.
	PhaseFrontier = "frontier"
	// PhaseDone: the final update, carrying the whole Result.
	PhaseDone = "done"
)

// Update is one streamed progress event: candidates as they are pruned,
// refined and certified, the frontier records in rank order, and a
// final done update carrying the assembled Result. A failing plan
// delivers its error as the stream's final element; a cancelled context
// just closes the channel, mirroring sweep.Runner.Stream.
type Update struct {
	Phase     string
	Candidate *Candidate
	Result    *Result
	Err       error
}

// --- wire formats -----------------------------------------------------

// jsonCandidate flattens a Candidate; non-finite floats become null.
type jsonCandidate struct {
	Topology       string   `json:"topology"`
	Family         string   `json:"family"`
	Size           int      `json:"size"`
	K              int      `json:"k,omitempty"`
	MsgFlits       int      `json:"msg_flits"`
	Policy         string   `json:"policy"`
	Cost           *float64 `json:"cost"`
	SaturationLoad *float64 `json:"saturation_load"`
	MaxLoad        *float64 `json:"max_load"`
	OperatingLoad  *float64 `json:"operating_load"`
	ModelLatency   *float64 `json:"model_latency"`
	Pruned         bool     `json:"pruned,omitempty"`
	PruneReason    string   `json:"prune_reason,omitempty"`
	Frontier       bool     `json:"frontier,omitempty"`
	Certified      bool     `json:"certified,omitempty"`
	CertifyNote    string   `json:"certify_note,omitempty"`
	SimLatency     *float64 `json:"sim_latency,omitempty"`
	SimCI95        *float64 `json:"sim_ci95,omitempty"`
	SimSaturated   bool     `json:"sim_saturated,omitempty"`
	BoundMax       *float64 `json:"bound_max,omitempty"`
	BoundUnbounded bool     `json:"bound_unbounded,omitempty"`
	BoundNA        bool     `json:"bound_na,omitempty"`
	Probes         int      `json:"probes,omitempty"`
	CalibVerdict   string   `json:"calib_verdict,omitempty"`
	CalibMAPE      *float64 `json:"calib_mape,omitempty"`
	CalibPairs     int      `json:"calib_pairs,omitempty"`
}

// MarshalJSON serialises the candidate with non-finite values as null.
func (c Candidate) MarshalJSON() ([]byte, error) {
	jc := jsonCandidate{
		Topology:       c.Topology.String(),
		Family:         c.Topology.Family,
		Size:           c.Topology.Size,
		K:              c.Topology.K,
		MsgFlits:       c.MsgFlits,
		Policy:         c.Policy,
		Cost:           eval.Finite(c.Cost),
		SaturationLoad: eval.Finite(c.SaturationLoad),
		MaxLoad:        eval.Finite(c.MaxLoad),
		OperatingLoad:  eval.Finite(c.OperatingLoad),
		ModelLatency:   eval.Finite(c.Latency),
		Pruned:         c.Pruned,
		PruneReason:    c.PruneReason,
		Frontier:       c.Frontier,
		Certified:      c.Certified,
		CertifyNote:    c.CertifyNote,
		SimSaturated:   c.SimSaturated,
		Probes:         c.Probes,
		CalibVerdict:   c.CalibVerdict,
		CalibMAPE:      eval.Finite(c.CalibMAPE),
		CalibPairs:     c.CalibPairs,
	}
	if !math.IsNaN(c.Sim) || c.SimSaturated {
		jc.SimLatency = eval.Finite(c.Sim)
		jc.SimCI95 = eval.Finite(c.SimCI)
	}
	if !math.IsNaN(c.BoundMax) || c.BoundNA {
		jc.BoundMax = eval.Finite(c.BoundMax)
		jc.BoundUnbounded = math.IsInf(c.BoundMax, 1)
		jc.BoundNA = c.BoundNA
	}
	return json.Marshal(jc)
}

type jsonResult struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Objective   string      `json:"objective"`
	Candidates  []Candidate `json:"candidates"`
	Frontier    []Candidate `json:"frontier"`
	Stats       Stats       `json:"stats"`
}

// MarshalJSON serialises the result (spec reduced to its labels; a
// reader that needs the full spec already has it — it asked the question).
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonResult{
		Name:        r.Spec.Name,
		Description: r.Spec.Description,
		Objective:   r.Spec.Objective,
		Candidates:  r.Candidates,
		Frontier:    r.Frontier,
		Stats:       r.Stats,
	})
}

// jsonUpdate is the NDJSON line of cmd/plan -stream.
type jsonUpdate struct {
	Phase     string     `json:"phase,omitempty"`
	Candidate *Candidate `json:"candidate,omitempty"`
	Result    *Result    `json:"result,omitempty"`
	Error     string     `json:"error,omitempty"`
}

// MarshalJSON serialises the update as one NDJSON-able object; errors
// travel in-band under the "error" key.
func (u Update) MarshalJSON() ([]byte, error) {
	ju := jsonUpdate{Phase: u.Phase, Candidate: u.Candidate, Result: u.Result}
	if u.Err != nil {
		ju.Error = u.Err.Error()
	}
	return json.Marshal(ju)
}

// --- rendering --------------------------------------------------------

// Table renders every candidate as the repo's standard fixed-width
// table, frontier members first in rank order.
func (r *Result) Table() *series.Table {
	withBounds := false
	for _, c := range r.Candidates {
		if !math.IsNaN(c.BoundMax) || c.BoundNA {
			withBounds = true
			break
		}
	}
	headers := []string{
		"candidate", "cost", "sat load", "max load", "op load",
		"model L", "sim L", "±CI",
	}
	if withBounds {
		headers = append(headers, "wc bound")
	}
	tbl := &series.Table{Headers: append(headers, "status")}
	add := func(c Candidate, rank int) {
		num := func(v float64, prec int) string {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "-"
			}
			return strconv.FormatFloat(v, 'f', prec, 64)
		}
		status := ""
		switch {
		case c.Pruned:
			status = "pruned: " + c.PruneReason
		case c.Frontier && rank > 0:
			status = "frontier #" + strconv.Itoa(rank)
			if c.Certified {
				status += " certified"
			}
			if c.CalibVerdict != "" {
				status += " calib:" + c.CalibVerdict
			}
			if c.CertifyNote != "" {
				status += " (" + c.CertifyNote + ")"
			}
		}
		sim := num(c.Sim, 4)
		if c.SimSaturated {
			sim += "*"
		}
		row := []string{c.Key(), num(c.Cost, 0), num(c.SaturationLoad, 6),
			num(c.MaxLoad, 6), num(c.OperatingLoad, 6),
			num(c.Latency, 4), sim, num(c.SimCI, 4)}
		if withBounds {
			bound := num(c.BoundMax, 1)
			switch {
			case c.BoundNA:
				bound = "n/a"
			case math.IsInf(c.BoundMax, 1):
				bound = "unbounded"
			}
			row = append(row, bound)
		}
		tbl.AddRow(append(row, status)...)
	}
	for i, c := range r.Frontier {
		add(c, i+1)
	}
	for _, c := range r.Candidates {
		if !c.Frontier {
			add(c, 0)
		}
	}
	return tbl
}

// Summary renders a short account of the search.
func (r *Result) Summary() string {
	s := r.Stats
	out := fmt.Sprintf("%s (%s): %d candidate(s) -> %d pruned, %d refined, frontier %d (%d sim-certified)\n",
		r.Spec.Name, r.Spec.Objective, s.Candidates, s.Pruned, s.Refined,
		s.FrontierSize, s.Certified)
	out += fmt.Sprintf("  evaluations: %d analytic (%d coarse + %d probes, %d warm), %d sim\n",
		s.AnalyticEvals(), s.CoarseCells, s.Probes, s.CoarseCacheHits, s.SimEvals)
	if !r.Spec.Workload.IsDefault() {
		out += fmt.Sprintf("  certification workload: %s (analytic search anchored at the steady model)\n",
			r.Spec.Workload.Label())
	}
	if s.Trusted+s.Escalated+s.Uncalibrated > 0 {
		out += fmt.Sprintf("  calibration: %d trusted (sim skipped), %d escalated, %d uncalibrated\n",
			s.Trusted, s.Escalated, s.Uncalibrated)
	}
	if best := r.Best(); best != nil {
		out += fmt.Sprintf("  best: %s cost=%.0f max_load=%.6f latency=%.4f",
			best.Key(), best.Cost, best.MaxLoad, best.Latency)
		if !math.IsNaN(best.BoundMax) && !math.IsInf(best.BoundMax, 0) {
			out += fmt.Sprintf(" wc_bound=%.1f", best.BoundMax)
		}
		out += "\n"
	}
	return out
}
