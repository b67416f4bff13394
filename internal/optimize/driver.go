// Package optimize implements the L5 (autonomous) layer of the twin
// taxonomy (Fig. 2): the paper's example is "training an agent to
// perform automated setpoint control for improved cooling efficiency".
// Here the digital twin itself is the training ground: candidate
// designs and plant setpoints are scored against the simulated system,
// so no physical plant is put at risk (the virtual-prototyping value
// proposition of §I). A setpoint study is a StudySpec over the
// cooling.ct_supply_set_c and cooling.htw_header_set_pa knobs.
package optimize

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/raps"
	"exadigit/internal/surrogate"
	"exadigit/internal/uq"
)

// This file is the closed-loop co-design driver — the L5 layer run for
// real: a seeded multi-objective evolutionary search over the knob
// space whose outer loop evaluates candidates as scenarios through an
// Evaluator (the sweep service in production, so evaluations inherit
// caching, single-flight, retries, journaling, and -workers
// distribution), and whose inner loop screens candidates on an
// online-trained ridge surrogate with split-conformal UQ gating:
// candidates whose predicted-error interval is too wide or straddles a
// constraint boundary — plus every candidate the surrogate predicts
// onto the Pareto frontier — fall back to a full-twin evaluation, so
// every reported objective is exact.
//
// Everything is deterministic for a fixed StudySpec: seeded sampling
// and mutation, deterministic ridge fits, no map-ordered iteration in
// any decision path. A warm re-run therefore reproduces the exact same
// twin-evaluation set and rides the result cache end to end.

// StudySpec configures one co-design study.
type StudySpec struct {
	// Knobs spans the search space (see KnobNames).
	Knobs []Knob `json:"knobs"`
	// Objectives to minimize/maximize (default: minimize energy_mwh).
	Objectives []Objective `json:"objectives,omitempty"`
	// Constraints gate feasibility.
	Constraints []Constraint `json:"constraints,omitempty"`
	// Population is the candidates drawn per generation (default 32).
	Population int `json:"population,omitempty"`
	// Generations is the outer-loop count (default 6).
	Generations int `json:"generations,omitempty"`
	// InitSample bounds how many candidates are twin-evaluated blind
	// before the surrogate first trains (default: the surrogate's
	// minimum training size; capped at Population).
	InitSample int `json:"init_sample,omitempty"`
	// PromoteTopK is how many surrogate-screened candidates are promoted
	// to full-twin evaluation per generation on predicted rank, on top
	// of predicted-frontier members and UQ fallbacks (default 4).
	PromoteTopK int `json:"promote_top_k,omitempty"`
	// MaxTwinEvals bounds the study's total full-twin evaluations
	// (0 → unbounded); the study stops early when exhausted.
	MaxTwinEvals int `json:"max_twin_evals,omitempty"`
	// Seed drives sampling and mutation (same seed → same study).
	Seed int64 `json:"seed,omitempty"`
	// DisableSurrogate forces every candidate to a full-twin evaluation
	// — the baseline arm of the screening-throughput benchmark.
	DisableSurrogate bool `json:"disable_surrogate,omitempty"`
	// Confidence is the conformal coverage level of the UQ gate
	// (default 0.9).
	Confidence float64 `json:"confidence,omitempty"`
	// GateRelWidth is the trust predicate: the surrogate may screen only
	// while every target's conformal interval radius stays below
	// GateRelWidth × that target's observed spread (default 0.2).
	GateRelWidth float64 `json:"gate_rel_width,omitempty"`
	// MinCalib is the residual count before the gate can open
	// (default 8; raised automatically until the conformal rank lands
	// inside the sample at the configured confidence).
	MinCalib int `json:"min_calib,omitempty"`
	// Lambda is the surrogate's ridge regularization (default 1e-6).
	Lambda float64 `json:"lambda,omitempty"`
}

func (sp *StudySpec) withDefaults() StudySpec {
	out := *sp
	if out.Population <= 0 {
		out.Population = 32
	}
	if out.Generations <= 0 {
		out.Generations = 6
	}
	if out.PromoteTopK <= 0 {
		out.PromoteTopK = 4
	}
	if out.Confidence <= 0 || out.Confidence >= 1 {
		out.Confidence = 0.9
	}
	if out.GateRelWidth <= 0 {
		out.GateRelWidth = 0.2
	}
	if out.MinCalib <= 0 {
		out.MinCalib = 8
	}
	if out.Lambda <= 0 {
		out.Lambda = 1e-6
	}
	return out
}

// Outcome is one candidate's full-twin evaluation result.
type Outcome struct {
	Report   *raps.Report
	CacheHit bool
	// Err marks a failed evaluation (the candidate becomes infeasible;
	// the study continues).
	Err string
}

// Evaluator runs candidate scenarios on the full twin. The service
// implements it by submitting each batch as one sweep; tests implement
// it analytically. Returned outcomes align with the scenarios; the
// call returns an error only for study-fatal conditions (cancellation,
// service shutdown).
type Evaluator interface {
	Evaluate(ctx context.Context, generation int, scenarios []core.Scenario) ([]Outcome, error)
}

// EvaluatorFunc adapts a function to Evaluator.
type EvaluatorFunc func(ctx context.Context, generation int, scenarios []core.Scenario) ([]Outcome, error)

// Evaluate implements Evaluator.
func (f EvaluatorFunc) Evaluate(ctx context.Context, gen int, scs []core.Scenario) ([]Outcome, error) {
	return f(ctx, gen, scs)
}

// Hooks observes the driver for metrics and progress streaming. All
// fields are optional.
type Hooks struct {
	// OnTwinEval fires per full-twin evaluation (cached tells whether
	// the sweep service served it from a cache tier).
	OnTwinEval func(cached bool)
	// OnScreened fires per candidate settled on the surrogate alone.
	OnScreened func()
	// OnFallback fires per UQ-gate fallback — a candidate the surrogate
	// wanted to screen but could not be trusted with (calibration
	// bootstrap, wide interval, or a constraint decision inside the
	// interval).
	OnFallback func()
	// OnGeneration fires as each generation completes.
	OnGeneration func()
	// OnProgress streams per-generation progress snapshots.
	OnProgress func(Progress)
}

// Progress is one generation's cumulative study snapshot.
type Progress struct {
	Generation   int     `json:"generation"`
	TwinEvals    int     `json:"twin_evals"`
	CachedEvals  int     `json:"cached_evals"`
	Screened     int     `json:"screened"`
	Fallbacks    int     `json:"fallbacks"`
	FrontierSize int     `json:"frontier_size"`
	BestScalar   float64 `json:"best_scalar"`
	// Best is the incumbent (nil until a feasible candidate exists).
	Best *Candidate `json:"best,omitempty"`
}

// StudyResult is the completed study.
type StudyResult struct {
	// BaselineObjectives are the base scenario's twin-exact metrics.
	BaselineObjectives map[string]float64 `json:"baseline_objectives,omitempty"`
	BaselineFeasible   bool               `json:"baseline_feasible"`
	BaselineError      string             `json:"baseline_error,omitempty"`
	// Best is the feasible candidate with the lowest scalar (nil if
	// nothing feasible was found).
	Best *Candidate `json:"best,omitempty"`
	// Frontier is the non-dominated feasible set, best scalar first.
	// Every member was evaluated on the full twin.
	Frontier []Candidate `json:"frontier"`
	// Evaluated is every twin-evaluated candidate, in evaluation order.
	Evaluated []Candidate `json:"evaluated,omitempty"`
	// Accounting.
	Generations int `json:"generations"`
	TwinEvals   int `json:"twin_evals"`
	CachedEvals int `json:"cached_evals"`
	Screened    int `json:"screened"`
	Fallbacks   int `json:"fallbacks"`
	// Model is the trained surrogate (nil when disabled or never
	// trained) — the service persists it to the durable store.
	Model *surrogate.Model `json:"model,omitempty"`
}

// trustChunk is the trust loop's promotion batch size: enough twin
// outcomes per iteration to move the windowed calibrators, small enough
// that the gate opening mid-generation saves most of the population.
const trustChunk = 8

// pendingCand is a deduplicated candidate on its way to a decision:
// screened on the surrogate or promoted to the twin. pred carries the
// surrogate prediction made before the candidate joined the training
// set — the residual source for the conformal calibrators.
type pendingCand struct {
	vec  []float64
	key  string
	pred []float64
}

// Driver runs one study.
type Driver struct {
	spec      StudySpec
	space     *Space
	objs      *objectiveSet
	base      core.Scenario
	basePlant config.CoolingSpec
	eval      Evaluator
	hooks     Hooks
	rng       *rand.Rand

	model  *surrogate.Model
	calibs []*uq.Calibrator // per target, aligned with objs.targets
	// spread tracks each target's observed [min,max] over twin
	// evaluations — the scale the gate's relative width is against.
	spreadLo, spreadHi []float64

	trainX [][]float64
	trainY [][]float64

	memo      map[string]*Candidate // snapped-vector key → twin outcome
	evaluated []Candidate

	twinEvals, cachedEvals, screened, fallbacks int
}

// NewDriver validates the study against the base scenario and plant.
// basePlant is the plant candidates mutate: the base scenario's
// CoolingSpec override when set, else the system spec's plant. model,
// when non-nil, warm-starts the surrogate from a persisted fit (its
// dimensionality and targets must match the study).
func NewDriver(spec StudySpec, base core.Scenario, basePlant config.CoolingSpec, eval Evaluator, hooks Hooks, model *surrogate.Model) (*Driver, error) {
	if eval == nil {
		return nil, fmt.Errorf("optimize: driver needs an evaluator")
	}
	sp := spec.withDefaults()
	if base.CoolingSpec != nil {
		basePlant = *base.CoolingSpec
	}
	space, err := NewSpace(sp.Knobs, basePlant)
	if err != nil {
		return nil, err
	}
	objs, err := newObjectiveSet(sp.Objectives, sp.Constraints)
	if err != nil {
		return nil, err
	}
	d := &Driver{
		spec: sp, space: space, objs: objs,
		base: base, basePlant: basePlant,
		eval: eval, hooks: hooks,
		rng:  rand.New(rand.NewSource(sp.Seed)),
		memo: make(map[string]*Candidate),
	}
	if !sp.DisableSurrogate {
		if model != nil {
			if model.Dims() != space.Dims() {
				return nil, fmt.Errorf("optimize: warm-start model has %d dims, space has %d", model.Dims(), space.Dims())
			}
			got := model.Targets()
			match := len(got) == len(objs.targets)
			for i := 0; match && i < len(got); i++ {
				match = got[i] == objs.targets[i]
			}
			if !match {
				return nil, fmt.Errorf("optimize: warm-start model targets %v, study wants %v", got, objs.targets)
			}
			d.model = model
		} else {
			lo, hi := space.Bounds()
			m, err := surrogate.NewModel(lo, hi, objs.targets, sp.Lambda)
			if err != nil {
				return nil, err
			}
			d.model = m
		}
		// Sliding-window calibrators: the surrogate improves every
		// retrain, so residuals from early, weaker fits must age out or
		// the gate would judge today's model by yesterday's errors. The
		// window is a few multiples of the minimum sample so the
		// conformal rank always lands inside it.
		win := 4 * d.calibNeed()
		d.calibs = make([]*uq.Calibrator, len(objs.targets))
		for i := range d.calibs {
			c, err := uq.NewCalibrator(sp.Confidence, sp.MinCalib, win)
			if err != nil {
				return nil, err
			}
			d.calibs[i] = c
		}
		d.spreadLo = make([]float64, len(objs.targets))
		d.spreadHi = make([]float64, len(objs.targets))
		for i := range d.spreadLo {
			d.spreadLo[i] = math.Inf(1)
			d.spreadHi[i] = math.Inf(-1)
		}
	}
	if d.spec.InitSample <= 0 {
		d.spec.InitSample = 0
		if d.model != nil {
			d.spec.InitSample = d.model.MinTrainRows()
		}
	}
	if d.spec.InitSample > d.spec.Population {
		d.spec.InitSample = d.spec.Population
	}
	return d, nil
}

// Targets returns the surrogate's target metrics, in training order.
func (d *Driver) Targets() []string { return append([]string(nil), d.objs.targets...) }

// Run executes the study. The context cancels it between batches (the
// Evaluator is expected to honor ctx inside a batch too).
func (d *Driver) Run(ctx context.Context) (*StudyResult, error) {
	res := &StudyResult{}

	// Baseline: the base scenario itself, twin-evaluated — the exact
	// operating point the study's winners are compared against.
	outs, err := d.eval.Evaluate(ctx, -1, []core.Scenario{d.base})
	if err != nil {
		return nil, fmt.Errorf("optimize: baseline: %w", err)
	}
	if len(outs) != 1 {
		return nil, fmt.Errorf("optimize: baseline: evaluator returned %d outcomes", len(outs))
	}
	if outs[0].Err != "" || outs[0].Report == nil {
		res.BaselineError = outs[0].Err
		if res.BaselineError == "" {
			res.BaselineError = "no report"
		}
	} else {
		vals, verr := d.objs.values(func(m string) (float64, error) { return metricValue(outs[0].Report, m) })
		if verr != nil {
			return nil, verr
		}
		res.BaselineObjectives = vals
		res.BaselineFeasible, _ = d.objs.feasible(vals)
	}

	pop := d.samplePopulation()
	for gen := 0; gen < d.spec.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := d.runGeneration(ctx, gen, pop); err != nil {
			return nil, err
		}
		if d.hooks.OnGeneration != nil {
			d.hooks.OnGeneration()
		}
		res.Generations = gen + 1
		d.emitProgress(gen)
		if d.budgetExhausted() {
			break
		}
		if gen+1 < d.spec.Generations {
			pop = d.nextPopulation()
		}
	}

	res.Evaluated = append([]Candidate(nil), d.evaluated...)
	res.Frontier = d.objs.frontier(d.evaluated)
	if len(res.Frontier) > 0 {
		best := res.Frontier[0]
		res.Best = &best
	}
	res.TwinEvals = d.twinEvals
	res.CachedEvals = d.cachedEvals
	res.Screened = d.screened
	res.Fallbacks = d.fallbacks
	if d.model != nil && d.model.Trained() {
		res.Model = d.model
	}
	return res, nil
}

// samplePopulation draws the initial generation: stratified per-knob
// sampling (a Latin-hypercube-style spread without coordinate
// correlation) snapped onto the grid.
func (d *Driver) samplePopulation() [][]float64 {
	n := d.spec.Population
	dims := d.space.Dims()
	knobs := d.space.Knobs()
	cols := make([][]float64, dims)
	for k := 0; k < dims; k++ {
		col := make([]float64, n)
		for i := 0; i < n; i++ {
			// Stratum i, jittered.
			frac := (float64(i) + d.rng.Float64()) / float64(n)
			col[i] = knobs[k].Min + frac*(knobs[k].Max-knobs[k].Min)
		}
		d.rng.Shuffle(n, func(a, b int) { col[a], col[b] = col[b], col[a] })
		cols[k] = col
	}
	pop := make([][]float64, n)
	for i := 0; i < n; i++ {
		vec := make([]float64, dims)
		for k := 0; k < dims; k++ {
			vec[k] = cols[k][i]
		}
		pop[i] = d.space.Snap(vec)
	}
	return pop
}

// nextPopulation breeds the next generation from the twin-evaluated
// archive: mutated elites (feasible, best scalar first), elite
// crossover, and a fresh-immigrant share to keep exploring.
func (d *Driver) nextPopulation() [][]float64 {
	elites := d.elites()
	n := d.spec.Population
	knobs := d.space.Knobs()
	dims := d.space.Dims()
	pop := make([][]float64, 0, n)
	immigrants := n / 4
	if len(elites) == 0 {
		immigrants = n
	}
	for len(pop) < n-immigrants {
		p := elites[d.rng.Intn(len(elites))]
		vec := make([]float64, dims)
		copy(vec, p.Vector)
		if len(elites) > 1 && d.rng.Float64() < 0.5 {
			q := elites[d.rng.Intn(len(elites))]
			for k := range vec {
				if d.rng.Float64() < 0.5 {
					vec[k] = q.Vector[k]
				}
			}
		}
		for k := range vec {
			// Gaussian mutation at 15 % of the knob range.
			vec[k] += d.rng.NormFloat64() * 0.15 * (knobs[k].Max - knobs[k].Min)
		}
		pop = append(pop, d.space.Snap(vec))
	}
	for len(pop) < n {
		vec := make([]float64, dims)
		for k := range vec {
			vec[k] = knobs[k].Min + d.rng.Float64()*(knobs[k].Max-knobs[k].Min)
		}
		pop = append(pop, d.space.Snap(vec))
	}
	return pop
}

// elites returns the archive's feasible members, best scalar first,
// capped at half the population.
func (d *Driver) elites() []Candidate {
	var out []Candidate
	for _, c := range d.evaluated {
		if c.Feasible {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Scalar < out[j].Scalar })
	if limit := d.spec.Population / 2; len(out) > limit && limit > 0 {
		out = out[:limit]
	}
	return out
}

// runGeneration screens and evaluates one population.
func (d *Driver) runGeneration(ctx context.Context, gen int, pop [][]float64) error {
	// Deduplicate against the memo: re-encountered grid points are
	// settled candidates and cost nothing.
	var fresh []pendingCand
	seen := make(map[string]bool)
	for _, vec := range pop {
		key := d.space.Key(vec)
		if seen[key] || d.memo[key] != nil {
			continue
		}
		seen[key] = true
		fresh = append(fresh, pendingCand{vec: vec, key: key})
	}
	if len(fresh) == 0 {
		return nil
	}

	// Surrogate disabled: everything runs on the twin.
	if d.model == nil {
		return d.evaluateBatch(ctx, gen, fresh, false)
	}

	// Blind phase: until the model first trains, twin-evaluate up to
	// InitSample candidates with no prediction attached.
	if !d.model.Trained() {
		blind := len(fresh)
		if d.spec.InitSample > 0 && blind > d.spec.InitSample {
			blind = d.spec.InitSample
		}
		if err := d.evaluateBatch(ctx, gen, fresh[:blind], false); err != nil {
			return err
		}
		fresh = fresh[blind:]
		if len(fresh) == 0 || d.budgetExhausted() {
			return nil
		}
		if !d.model.Trained() {
			// Still too little data (InitSample below the training
			// minimum): the rest of the generation runs blind too, and
			// training catches up as batches accumulate.
			return d.evaluateBatch(ctx, gen, fresh, false)
		}
	}

	// Predict everything up front. Predictions are made before any of
	// these candidates join the training set, so the residuals observed
	// on the promoted ones are honestly held-out.
	for i := range fresh {
		pred, err := d.model.Predict(fresh[i].vec)
		if err != nil {
			return err
		}
		fresh[i].pred = pred
	}

	// Trust loop: while the gate is closed — calibrators still
	// bootstrapping, or the conformal interval too wide relative to the
	// observed spread — promote candidates in predicted-rank order as UQ
	// fallbacks. Each chunk's twin outcomes feed the calibrators and
	// retrain the model, and the remainder is re-predicted on the
	// improved fit (still honestly held out: none of those candidates
	// has joined the training set), so both the promotion ranking and
	// the next gate check reflect the current model, not the one that
	// existed when the generation started. The windowed calibrators let
	// early large residuals age out, so trust earned mid-generation
	// opens the gate for the generation's remainder instead of writing
	// the whole population off.
	for !d.gateUsable() {
		if len(fresh) == 0 {
			return nil
		}
		d.sortByPredictedRank(fresh)
		chunk := d.calibNeed() - d.calibCount()
		if chunk < trustChunk {
			chunk = trustChunk
		}
		if chunk > len(fresh) {
			chunk = len(fresh)
		}
		if err := d.evaluateBatch(ctx, gen, fresh[:chunk], true); err != nil {
			return err
		}
		fresh = fresh[chunk:]
		if d.budgetExhausted() {
			return nil
		}
		for i := range fresh {
			pred, err := d.model.Predict(fresh[i].vec)
			if err != nil {
				return err
			}
			fresh[i].pred = pred
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	return d.screenAndPromote(ctx, gen, fresh)
}

// screenAndPromote settles a calibrated generation: candidates whose
// constraint decisions sit inside the conformal interval fall back,
// predicted-frontier members and the predicted top K promote, and the
// rest are screened out on the surrogate alone.
func (d *Driver) screenAndPromote(ctx context.Context, gen int, fresh []pendingCand) error {
	type screenedCand struct {
		scalar    float64
		feasible  bool
		uncertain bool
		vals      map[string]float64
	}
	pool := make([]screenedCand, len(fresh))
	for i := range fresh {
		vals := make(map[string]float64, len(d.objs.targets))
		for t, name := range d.objs.targets {
			vals[name] = fresh[i].pred[t]
		}
		feas, _ := d.objs.feasible(vals)
		pool[i] = screenedCand{
			scalar:    d.objs.scalar(vals),
			feasible:  feas,
			uncertain: d.constraintUncertain(vals),
			vals:      vals,
		}
	}

	promote := make(map[int]bool)  // index → promote to twin
	fallback := make(map[int]bool) // index → promoted because of UQ
	for i := range pool {
		if pool[i].uncertain {
			promote[i], fallback[i] = true, true
		}
	}
	// Predicted Pareto frontier members always promote: the frontier is
	// the study's product and must be twin-exact, so the surrogate is
	// never allowed to discard a potential member silently.
	for i := range pool {
		if !pool[i].feasible {
			continue
		}
		dominated := false
		for j := range pool {
			if i == j || !pool[j].feasible {
				continue
			}
			if d.objs.dominates(pool[j].vals, pool[i].vals) {
				dominated = true
				break
			}
		}
		if !dominated {
			promote[i] = true
		}
	}
	// Top K by predicted scalar (feasible first).
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := pool[order[a]], pool[order[b]]
		if pa.feasible != pb.feasible {
			return pa.feasible
		}
		return pa.scalar < pb.scalar
	})
	for k := 0; k < d.spec.PromoteTopK && k < len(order); k++ {
		promote[order[k]] = true
	}

	var twin, uqFall []pendingCand
	for i := range pool {
		switch {
		case fallback[i]:
			uqFall = append(uqFall, fresh[i])
		case promote[i]:
			twin = append(twin, fresh[i])
		default:
			d.screened++
			if d.hooks.OnScreened != nil {
				d.hooks.OnScreened()
			}
		}
	}
	if err := d.evaluateBatch(ctx, gen, twin, false); err != nil {
		return err
	}
	return d.evaluateBatch(ctx, gen, uqFall, true)
}

// constraintUncertain reports whether any constraint decision for the
// predicted values flips within the conformal interval — the surrogate
// cannot safely decide feasibility, so the candidate must run on the
// twin.
func (d *Driver) constraintUncertain(vals map[string]float64) bool {
	for _, c := range d.objs.constraints {
		r := d.radiusFor(c.Metric)
		v := vals[c.Metric]
		if c.Max != nil && math.Abs(v-*c.Max) <= r {
			return true
		}
		if c.Min != nil && math.Abs(v-*c.Min) <= r {
			return true
		}
	}
	return false
}

func (d *Driver) radiusFor(metric string) float64 {
	for i, t := range d.objs.targets {
		if t == metric {
			return d.calibs[i].Radius()
		}
	}
	return math.Inf(1)
}

// sortByPredictedRank orders candidates by predicted scalar, predicted-
// feasible first — the order trust-loop promotions are taken in, so
// the calibration twin evaluations double as useful search progress.
// Ranks are precomputed once; the comparator must not allocate (it runs
// O(n log n) times over populations of hundreds).
func (d *Driver) sortByPredictedRank(cands []pendingCand) {
	type rank struct {
		feasible bool
		scalar   float64
	}
	ranks := make([]rank, len(cands))
	vals := make(map[string]float64, len(d.objs.targets))
	for i := range cands {
		for t, name := range d.objs.targets {
			vals[name] = cands[i].pred[t]
		}
		feas, _ := d.objs.feasible(vals)
		ranks[i] = rank{feasible: feas, scalar: d.objs.scalar(vals)}
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := ranks[order[a]], ranks[order[b]]
		if ra.feasible != rb.feasible {
			return ra.feasible
		}
		return ra.scalar < rb.scalar
	})
	sorted := make([]pendingCand, len(cands))
	for i, idx := range order {
		sorted[i] = cands[idx]
	}
	copy(cands, sorted)
}

// calibsReady reports whether every target's calibrator has enough
// residuals for an honest radius.
func (d *Driver) calibsReady() bool {
	for _, c := range d.calibs {
		if !c.Ready() {
			return false
		}
	}
	return true
}

// calibCount is the smallest residual count across targets (every
// promoted candidate feeds all calibrators, so counts only diverge via
// failed evaluations).
func (d *Driver) calibCount() int {
	n := -1
	for _, c := range d.calibs {
		if n < 0 || c.Len() < n {
			n = c.Len()
		}
	}
	if n < 0 {
		return 0
	}
	return n
}

// calibNeed is the smallest residual count at which the conformal rank
// lands inside the sample: min n ≥ MinCalib with ⌈(n+1)·conf⌉ ≤ n.
func (d *Driver) calibNeed() int {
	n := d.spec.MinCalib
	for {
		k := int(math.Ceil(float64(n+1) * d.spec.Confidence))
		if k <= n {
			return n
		}
		n++
	}
}

// gateUsable reports whether the surrogate + UQ gate may screen
// candidates: the model is trained, every calibrator is ready, and
// every target's conformal radius is within the configured relative
// width of that target's observed spread.
func (d *Driver) gateUsable() bool {
	if d.model == nil || !d.model.Trained() || !d.calibsReady() {
		return false
	}
	for i := range d.calibs {
		spread := d.spreadHi[i] - d.spreadLo[i]
		if spread <= 0 || math.IsInf(spread, 0) {
			return false
		}
		if d.calibs[i].Radius() > d.spec.GateRelWidth*spread {
			return false
		}
	}
	return true
}

// evaluateBatch promotes a batch to the full twin, folds the outcomes
// into the archive, and retrains the surrogate. asFallback marks the
// batch as UQ fallbacks for accounting.
func (d *Driver) evaluateBatch(ctx context.Context, gen int, batch []pendingCand, asFallback bool) error {
	if len(batch) == 0 {
		return nil
	}
	if d.spec.MaxTwinEvals > 0 && d.twinEvals+len(batch) > d.spec.MaxTwinEvals {
		batch = batch[:d.spec.MaxTwinEvals-d.twinEvals]
		if len(batch) == 0 {
			return nil
		}
	}
	scenarios := make([]core.Scenario, len(batch))
	for i, p := range batch {
		sc, err := d.space.Apply(d.base, d.basePlant, p.vec)
		if err != nil {
			return err
		}
		scenarios[i] = sc
	}
	outs, err := d.eval.Evaluate(ctx, gen, scenarios)
	if err != nil {
		return err
	}
	if len(outs) != len(batch) {
		return fmt.Errorf("optimize: evaluator returned %d outcomes for %d scenarios", len(outs), len(batch))
	}
	for i, p := range batch {
		cand := Candidate{
			Params:     d.space.Params(p.vec),
			Vector:     append([]float64(nil), p.vec...),
			Generation: gen,
			CacheHit:   outs[i].CacheHit,
		}
		d.twinEvals++
		if outs[i].CacheHit {
			d.cachedEvals++
		}
		if d.hooks.OnTwinEval != nil {
			d.hooks.OnTwinEval(outs[i].CacheHit)
		}
		if asFallback {
			d.fallbacks++
			if d.hooks.OnFallback != nil {
				d.hooks.OnFallback()
			}
		}
		if outs[i].Err != "" || outs[i].Report == nil {
			cand.Feasible = false
			cand.Infeasible = outs[i].Err
			if cand.Infeasible == "" {
				cand.Infeasible = "no report"
			}
		} else {
			vals, verr := d.objs.values(func(m string) (float64, error) { return metricValue(outs[i].Report, m) })
			if verr != nil {
				return verr
			}
			cand.Objectives = vals
			cand.Scalar = d.objs.scalar(vals)
			cand.Feasible, cand.Infeasible = d.objs.feasible(vals)
			d.observe(p.vec, p.pred, vals)
		}
		d.memo[p.key] = &cand
		d.evaluated = append(d.evaluated, cand)
	}
	d.retrain()
	return nil
}

// observe folds one twin outcome into the surrogate training set, the
// per-target spread, and — when the candidate carried a pre-promotion
// prediction — the conformal calibrators.
func (d *Driver) observe(vec, pred []float64, vals map[string]float64) {
	if d.model == nil {
		return
	}
	y := make([]float64, len(d.objs.targets))
	for i, t := range d.objs.targets {
		v := vals[t]
		y[i] = v
		if v < d.spreadLo[i] {
			d.spreadLo[i] = v
		}
		if v > d.spreadHi[i] {
			d.spreadHi[i] = v
		}
		if pred != nil {
			d.calibs[i].Observe(pred[i] - v)
		}
	}
	d.trainX = append(d.trainX, append([]float64(nil), vec...))
	d.trainY = append(d.trainY, y)
}

// retrain refits the surrogate on everything observed so far. A
// singular fit (degenerate sample) is not fatal: the gate simply stays
// closed until more data arrives.
func (d *Driver) retrain() {
	if d.model == nil || len(d.trainX) < d.model.MinTrainRows() {
		return
	}
	_ = d.model.Fit(d.trainX, d.trainY)
}

func (d *Driver) budgetExhausted() bool {
	return d.spec.MaxTwinEvals > 0 && d.twinEvals >= d.spec.MaxTwinEvals
}

func (d *Driver) emitProgress(gen int) {
	if d.hooks.OnProgress == nil {
		return
	}
	front := d.objs.frontier(d.evaluated)
	p := Progress{
		Generation:   gen,
		TwinEvals:    d.twinEvals,
		CachedEvals:  d.cachedEvals,
		Screened:     d.screened,
		Fallbacks:    d.fallbacks,
		FrontierSize: len(front),
	}
	if len(front) > 0 {
		best := front[0]
		p.Best = &best
		p.BestScalar = best.Scalar
	}
	d.hooks.OnProgress(p)
}
