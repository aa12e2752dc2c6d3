package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"svqact/internal/detect"
	"svqact/internal/kernel"
	"svqact/internal/obs"
	"svqact/internal/plan"
	"svqact/internal/scanstat"
	"svqact/internal/video"
)

// Mode selects between the paper's two online algorithms.
type Mode int

const (
	// Static is SVAQ: critical values fixed from the initial background
	// probabilities (paper Algorithm 1).
	Static Mode = iota
	// Dynamic is SVAQD: per-predicate background probabilities estimated
	// online and critical values refreshed as they drift (Algorithm 3).
	Dynamic
)

func (m Mode) String() string {
	if m == Dynamic {
		return "SVAQD"
	}
	return "SVAQ"
}

// Engine runs online action queries over streaming videos.
type Engine struct {
	models detect.Models
	cfg    Config
	mode   Mode
	meter  *detect.Meter

	// objTiers/actTiers describe the models' detector cascades (nil for
	// single-tier models), cached once so the per-clip tier dispatch is a
	// slice-length check rather than an interface assertion.
	objTiers []detect.TierInfo
	actTiers []detect.TierInfo
}

// NewSVAQ builds the static-background engine.
func NewSVAQ(models detect.Models, cfg Config) (*Engine, error) {
	return newEngine(models, cfg, Static)
}

// NewSVAQD builds the adaptive engine.
func NewSVAQD(models detect.Models, cfg Config) (*Engine, error) {
	return newEngine(models, cfg, Dynamic)
}

func newEngine(models detect.Models, cfg Config, mode Mode) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if models.Objects == nil || models.Actions == nil {
		return nil, fmt.Errorf("core: engine needs both an object detector and an action recogniser")
	}
	e := &Engine{models: models, cfg: cfg, mode: mode, meter: cfg.Meter}
	if _, ok := models.Objects.(detect.CascadedObjectScorer); ok {
		e.objTiers = detect.CascadeTierInfos(models.Objects)
	}
	if _, ok := models.Actions.(detect.CascadedActionScorer); ok {
		e.actTiers = detect.CascadeTierInfos(models.Actions)
	}
	return e, nil
}

// TierCosts converts cascade tier descriptions into the planner's tier cost
// model — the bridge between detect's calibrated profiles and plan's
// escalation estimators, shared by the online planner and rank's static one.
func TierCosts(infos []detect.TierInfo) []plan.TierCost {
	if len(infos) < 2 {
		return nil
	}
	tiers := make([]plan.TierCost, len(infos))
	for i, ti := range infos {
		tiers[i] = plan.TierCost{Name: ti.Name, UnitCost: ti.UnitCost, PriorEscalate: ti.PriorEscalate}
	}
	return tiers
}

// Mode returns which algorithm the engine runs.
func (e *Engine) Mode() Mode { return e.mode }

// SetMeter attaches an inference meter; subsequent runs charge their model
// invocations to it.
func (e *Engine) SetMeter(m *detect.Meter) { e.meter = m }

// PredicateKind distinguishes the kinds of query atom.
type PredicateKind int

const (
	// ObjectPredicate is evaluated per frame.
	ObjectPredicate PredicateKind = iota
	// ActionPredicate is evaluated per shot.
	ActionPredicate
	// RelationPredicate is a spatial relationship between two object
	// types, evaluated per frame from pairs of detections.
	RelationPredicate
)

// PredicateStats reports per-predicate diagnostics of a run.
type PredicateStats struct {
	Name string
	Kind PredicateKind
	// Clips is the set of clips on which the predicate's indicator was
	// positive (the offline phase materialises these as the paper's
	// "individual sequences").
	Clips video.IntervalSet
	// RawUnits is the set of occurrence units (frames for objects, shots
	// for the action) with positive thresholded detections — the
	// pre-filtering signal.
	RawUnits video.IntervalSet
	// Background is the final background probability in effect (the fixed
	// p0 for SVAQ, the last estimate for SVAQD).
	Background float64
	// Critical is the final critical value in effect.
	Critical int
	// EvaluatedClips counts the clips on which the predicate was actually
	// evaluated (short-circuiting skips the rest).
	EvaluatedClips int
}

// Result is the outcome of a run over one video.
type Result struct {
	// Query is the evaluated query in CNF; a basic query appears as its
	// singleton-clause lift (FromQuery).
	Query    CNF
	Mode     Mode
	Geometry video.Geometry
	// NumClips is the number of clips in the processed video; Processed
	// counts the clips actually evaluated (smaller when the run was cut
	// short by cancellation or degradation).
	NumClips  int
	Processed int
	// Sequences is P_q: maximal runs of clips satisfying the whole query.
	Sequences video.IntervalSet
	// Flagged is the set of clips skipped after detector retry exhaustion
	// (their indicator is conservatively negative) — the degraded-but-alive
	// outcome of the failure model.
	Flagged video.IntervalSet
	// Predicates holds per-atom diagnostics in the query's first-appearance
	// order (for a basic query: objects in query order, then the action).
	Predicates []PredicateStats
	// Plan reports the predicate evaluation plan the run used: the chosen
	// order, the per-node cost model, re-plan count and short-circuit
	// savings. Runs sharing a fleet-wide planner report the shared
	// (fleet-cumulative) statistics.
	Plan *plan.Report
	// InferenceCost is the priced simulated inference time the run spent —
	// for cascaded models the per-attempt tier spend, otherwise units scored
	// times the detector's unit cost.
	InferenceCost time.Duration
	// BudgetSkipped counts the clips skipped-and-flagged after the
	// inference budget ran out (zero when no budget is configured).
	BudgetSkipped int64
}

// FrameSequences converts the clip-level result sequences to frame
// intervals.
func (r *Result) FrameSequences() video.IntervalSet {
	ivs := make([]video.Interval, 0, r.Sequences.NumIntervals())
	for _, iv := range r.Sequences.Intervals() {
		ivs = append(ivs, r.Geometry.FrameRangeOfClips(iv))
	}
	return video.NewIntervalSet(ivs...)
}

// Predicate returns the stats for a predicate by name, or nil.
func (r *Result) Predicate(name string) *PredicateStats {
	for i := range r.Predicates {
		if r.Predicates[i].Name == name {
			return &r.Predicates[i]
		}
	}
	return nil
}

// Run processes the whole video and returns the result sequences — the
// batch entry point. For incremental streaming consumption use NewRun/Step.
//
// The run honours ctx: on deadline expiry or cancellation it stops between
// clips and returns the partial result covering the clips processed so far
// together with an *InterruptedError. A run whose flagged clips exceed the
// failure budget likewise returns its partial result and a *DegradedError.
func (e *Engine) Run(ctx context.Context, v detect.TruthVideo, q Query) (*Result, error) {
	return e.runShared(ctx, v, q, nil)
}

// runShared is Run with an optional externally owned planner — the fleet
// path hands every per-video run one shared, warm-started cost model.
func (e *Engine) runShared(ctx context.Context, v detect.TruthVideo, q Query, pl *plan.Planner) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return e.run(ctx, v, FromQuery(q), pl, "engine.run")
}

// run is the one batch entry point: it evaluates a CNF query over the
// whole video, naming the root span root. It owns the run's pooled
// scratch: the scratch goes back to the pool only after Result() has
// materialised everything the caller sees, so nothing the caller holds
// aliases pooled memory.
func (e *Engine) run(ctx context.Context, v detect.TruthVideo, q CNF, pl *plan.Planner, root string) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	run, err := e.newRun(ctx, v, q, pl, root)
	if err != nil {
		return nil, err
	}
	for run.Step() {
	}
	res, rerr := run.Result(), run.Err()
	run.release()
	return res, rerr
}

// predState is the per-atom evaluation state of a run.
type predState struct {
	atom Atom
	name string // atom.String()
	kind PredicateKind

	// clauses lists the query clauses the atom belongs to, each once.
	clauses []int

	window int // occurrence units per clip (frames or shots)

	crit int // current critical value

	est   *kernel.Estimator        // Dynamic mode only
	cache *scanstat.CriticalValues // Dynamic mode only

	// lastBucket memoizes the grid bucket of the last background estimate:
	// the critical value is a pure function of the bucket, so the shared
	// grid is consulted only when the estimate crosses into a new bucket,
	// not on every admitted clip.
	lastBucket int
	hasBucket  bool

	// recent is a ring of the latest unbiased clip counts; the quantile
	// gate (Config.NullQuantile) derives an admission threshold from it,
	// keeping the null-rate estimate robust to the events themselves.
	recent     []int
	recentPos  int
	recentSeen int

	// prev2/prev1 hold the last two unbiased counts so updates can be
	// applied one clip late with both temporal neighbours known: a count
	// feeds the estimator only when it and both neighbours are below the
	// gate threshold, excluding event boundaries from the null estimate.
	prev2, prev1 int
	lagSeen      int

	clipInd   []bool // indicator per processed clip
	rawInd    []bool // indicator per occurrence unit (false when skipped)
	evaluated int

	// Per-run observability: cumulative time spent evaluating this
	// predicate's detector calls, occurrence units scored, and critical-value
	// refreshes applied (Dynamic mode).
	evalTime   time.Duration
	units      int
	recomputes int

	// Cascade accounting (empty slices for single-tier models): cumulative
	// units scored and units escalated per tier across the run, and the
	// planner's most recent tier decision — the run-local numbers behind the
	// tier:* span attributes.
	tierUnits     []int64
	tierEscalated []int64
	lastMode      plan.TierMode
}

// Run is an in-progress streaming evaluation over one video. It is not safe
// for concurrent use.
type Run struct {
	e     *Engine
	ctx   context.Context
	v     detect.TruthVideo
	q     CNF
	root  string // root span name
	geom  video.Geometry
	preds []*predState // declared order: first appearance, actions first under ActionFirst

	// Clause bookkeeping for the short-circuit rule: clauseSize counts each
	// clause's distinct atoms; per clip, clauseSat marks the clauses some
	// evaluated atom satisfied and clauseLeft counts the atoms of each
	// clause not yet evaluated negative.
	clauseSize []int
	clauseSat  []bool
	clauseLeft []int

	// planner owns the evaluation order over preds (cheapest expected cost
	// to reject first, re-planned as statistics drift; pinned to the
	// declared order under NoShortCircuit/ActionFirst/DeclaredOrder). Fleet
	// runs share one planner per query.
	planner *plan.Planner

	numClips int
	nextClip int
	clipInd  []bool

	// Failure-model state: flagged marks processed clips skipped after
	// retry exhaustion; err latches the terminal error of the run.
	flagged      []bool
	flaggedCount int
	err          error

	// Inference-budget state: the simulated inference cost spent so far,
	// and the clips skipped-and-flagged after the budget ran out (planned
	// degradation — these never raise a DegradedError).
	budgetSpent   time.Duration
	budgetSkipped int64

	// lastAcc points at the cascade account the most recent evaluate call
	// filled (nil when the predicate's model is single-tier), so Step can
	// feed the planner's escalation estimators without re-deriving it.
	lastAcc *detect.CascadeAccount

	// Observability: the trace carried by the run's context (nil when the
	// caller attached none), the context's current span (the engine span's
	// parent in the assembled tree), the run's start time, and whether the
	// run's spans were already emitted (Result may be called repeatedly).
	trace        *obs.Trace
	parent       *obs.Span
	started      time.Time
	spansEmitted bool

	// scratch is the pooled per-run state this Run's slices point into; nil
	// only for zero-value Runs. See pool.go for the lifecycle.
	scratch *runScratch
}

// NewRun prepares a streaming evaluation of q over v. Critical values are
// initialised from the configured background probabilities; in Dynamic mode
// each predicate also gets a kernel estimator. The context is checked before
// every clip; a nil ctx means context.Background.
func (e *Engine) NewRun(ctx context.Context, v detect.TruthVideo, q Query) (*Run, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return e.newRun(ctx, v, FromQuery(q), nil, "engine.run")
}

// newRun prepares a run of the CNF query q, which the caller has
// validated, with an optional shared planner (fleet warm start): one pooled
// predState per distinct atom, in declared order, each recording the
// clauses it belongs to. A nil or mismatched planner gets replaced by a
// fresh one for this run.
func (e *Engine) newRun(ctx context.Context, v detect.TruthVideo, q CNF, pl *plan.Planner, root string) (*Run, error) {
	g := v.Geometry()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := acquireRun()
	r.e = e
	r.ctx = ctx
	r.v = v
	r.q = q
	r.root = root
	r.geom = g
	r.numClips = g.NumClips(v.NumFrames())
	r.trace = obs.TraceFrom(ctx)
	r.parent = obs.SpanFrom(ctx)
	r.started = time.Now()

	s := r.scratch
	s.atoms = e.declaredAtoms(s.atoms[:0], q)
	slots := s.ensurePreds(len(s.atoms))
	r.preds = s.predPtrs[:0]
	for i, a := range s.atoms {
		if err := r.initPred(&slots[i], a); err != nil {
			r.release()
			return nil, err
		}
		r.preds = append(r.preds, &slots[i])
	}
	s.clauseSize = zeroed(s.clauseSize, len(q.Clauses))
	s.clauseLeft = zeroed(s.clauseLeft, len(q.Clauses))
	s.clauseSat = zeroed(s.clauseSat, len(q.Clauses))
	r.clauseSize, r.clauseLeft, r.clauseSat = s.clauseSize, s.clauseLeft, s.clauseSat
	for ci, c := range q.Clauses {
		for _, a := range c.Atoms {
			ps := r.pred(a)
			if n := len(ps.clauses); n == 0 || ps.clauses[n-1] != ci {
				ps.clauses = append(ps.clauses, ci)
				r.clauseSize[ci]++
			}
		}
	}
	r.seedCrits()
	if pl == nil || pl.Len() != len(r.preds) {
		pl = e.plannerFor(s.atoms, g)
	}
	r.planner = pl
	return r, nil
}

// declaredAtoms appends q's distinct atoms to dst in the declared
// evaluation order: first appearance, with the action atoms moved to the
// front under ActionFirst.
func (e *Engine) declaredAtoms(dst []Atom, q CNF) []Atom {
	start := len(dst)
	for _, c := range q.Clauses {
		for _, a := range c.Atoms {
			if !slices.ContainsFunc(dst[start:], a.same) {
				dst = append(dst, a)
			}
		}
	}
	if e.cfg.ActionFirst {
		atoms := dst[start:]
		sort.SliceStable(atoms, func(i, j int) bool {
			return atoms[i].Kind == ActionPredicate && atoms[j].Kind != ActionPredicate
		})
	}
	return dst
}

// pred returns the run's state for an atom of its query.
func (r *Run) pred(a Atom) *predState {
	for _, ps := range r.preds {
		if ps.atom.same(a) {
			return ps
		}
	}
	panic("core: atom " + a.String() + " not in the run's query")
}

// plannerFor builds the predicate planner for atoms in declared order at
// one video geometry: one node per atom, with the per-clip prior cost
// priced as the atom's occurrence-unit window times the detector's unit
// cost (a relation reads its clip's frames from the object detector). The
// order is pinned to the declared one under NoShortCircuit (every atom runs
// anyway), ActionFirst (the explicit ordering ablation) and DeclaredOrder
// (the planner opt-out).
func (e *Engine) plannerFor(atoms []Atom, g video.Geometry) *plan.Planner {
	nodes := make([]plan.Node, len(atoms))
	for i, a := range atoms {
		w := g.FramesPerClip()
		if a.Kind == ActionPredicate {
			w = g.ShotsPerClip
		}
		nodes[i] = plan.Node{
			Name:      a.String(),
			PriorCost: time.Duration(w) * e.unitCost(a.Kind),
			Tiers:     TierCosts(e.tierInfos(a.Kind)),
			Window:    w,
		}
	}
	pinned := e.cfg.NoShortCircuit || e.cfg.ActionFirst || e.cfg.DeclaredOrder
	return plan.New(nodes, plan.Options{Pinned: pinned, ReplanEvery: e.cfg.ReplanEvery})
}

// initPred (re)builds the evaluation state for one atom in a pooled slot:
// in Static mode its critical value at p0, in Dynamic mode its kernel
// estimator and critical-value cache. Objects and relations are counted
// per frame, actions per shot. Slice capacities and a bandwidth-matching
// estimator already in the slot are reused. Dynamic critical values are
// seeded afterwards, in one batch per grid, by seedCrits.
func (r *Run) initPred(ps *predState, a Atom) error {
	cfg := r.e.cfg
	w, units := r.geom.FramesPerClip(), r.v.NumFrames()
	p0, bw := cfg.P0Object, cfg.BandwidthFrames
	if a.Kind == ActionPredicate {
		w, units = r.geom.ShotsPerClip, r.geom.NumShots(r.v.NumFrames())
		p0, bw = cfg.P0Action, cfg.BandwidthShots
	}
	ps.atom, ps.name, ps.kind, ps.window = a, a.String(), a.Kind, w
	ps.clauses = ps.clauses[:0]
	ps.rawInd = zeroed(ps.rawInd, units)
	ps.clipInd = ps.clipInd[:0]
	ps.recentPos, ps.recentSeen = 0, 0
	ps.prev2, ps.prev1, ps.lagSeen = 0, 0, 0
	ps.evaluated = 0
	ps.evalTime, ps.units, ps.recomputes = 0, 0, 0
	ps.tierUnits, ps.tierEscalated = ps.tierUnits[:0], ps.tierEscalated[:0]
	ps.lastMode = plan.TierSingle
	if tiers := r.e.tierInfos(a.Kind); len(tiers) >= 2 {
		ps.tierUnits = zeroed(ps.tierUnits, len(tiers))
		ps.tierEscalated = zeroed(ps.tierEscalated, len(tiers))
	}
	ps.hasBucket = false
	ps.cache = nil
	if r.e.mode != Dynamic {
		ps.crit = scanstat.CriticalValue(w, p0, cfg.HorizonClips, cfg.Alpha)
		ps.est = nil
		return nil
	}
	if ps.est != nil && ps.est.Bandwidth() == bw {
		if err := ps.est.Reset(p0); err != nil {
			return err
		}
	} else {
		est, err := kernel.NewEstimator(bw, p0)
		if err != nil {
			return err
		}
		ps.est = est
	}
	// The grid is shared process-wide: every run at this configuration —
	// all videos of a fleet, all concurrent server queries — reuses one
	// memoized Naus search per bucket instead of recomputing it per run.
	ps.cache = scanstat.Shared(w, cfg.HorizonClips, cfg.Alpha, cfg.CritGrid)
	return nil
}

// seedCrits initialises the Dynamic-mode critical values of every
// predicate, batching the grid lookups so each shared cache is locked once
// per run rather than once per predicate. Object predicates all share one
// grid (same window) and the action another, so this is at most two locked
// passes.
func (r *Run) seedCrits() {
	if r.e.mode != Dynamic {
		return
	}
	n := len(r.preds)
	probs, ks := r.scoreBuf(n), r.critBuf(n)
	for i, ps := range r.preds {
		if ps.hasBucket {
			continue
		}
		// Gather every predicate sharing this one's cache into one batch.
		batch := 0
		for j := i; j < n; j++ {
			if qs := r.preds[j]; !qs.hasBucket && qs.cache == ps.cache {
				probs[batch] = qs.est.P()
				batch++
			}
		}
		ps.cache.AtBatch(probs[:batch], ks[:batch])
		batch = 0
		for j := i; j < n; j++ {
			if qs := r.preds[j]; !qs.hasBucket && qs.cache == ps.cache {
				qs.crit = ks[batch]
				qs.lastBucket = qs.cache.BucketOf(probs[batch])
				qs.hasBucket = true
				batch++
			}
		}
	}
}

// NumClips returns the number of clips the run will process.
func (r *Run) NumClips() int { return r.numClips }

// Processed returns the number of clips processed so far.
func (r *Run) Processed() int { return r.nextClip }

// Err returns the terminal error of the run: an *InterruptedError when the
// context ended mid-stream, a *DegradedError when flagged clips exceeded the
// failure budget, nil while the run is healthy. Once set, Step returns
// false.
func (r *Run) Err() error { return r.err }

// Flagged returns the clips skipped so far after detector retry exhaustion.
func (r *Run) Flagged() video.IntervalSet { return video.FromIndicator(r.flagged) }

// Step processes the next clip of the stream; it returns false when the
// stream is exhausted, the context has ended, or the run has degraded past
// the failure budget (check Err). This is Algorithm 1/3's main loop body:
// evaluate the clip indicator (Algorithm 2) and, in Dynamic mode, fold the
// clip's observations into each evaluated predicate's background estimate
// and refresh its critical value.
//
// The clip satisfies the query when every clause holds, and a clause holds
// when any of its atoms does. Atoms run in planner order; off sampled
// clips an atom is skipped once every clause it belongs to is satisfied or
// once some clause has failed (all its atoms evaluated negative). For a
// basic query every clause is a single atom, so this is Algorithm 2's
// first-negative early exit.
//
// A detector invocation that still fails after the configured retries does
// not abort the run: the clip is flagged, its indicator forced negative, and
// processing continues — until the flagged fraction exceeds the failure
// budget, at which point the run stops with a DegradedError.
func (r *Run) Step() bool {
	if r.err != nil || r.nextClip >= r.numClips {
		return false
	}
	if cerr := r.ctx.Err(); cerr != nil {
		r.err = &InterruptedError{Processed: r.nextClip, Total: r.numClips, Err: cerr}
		return false
	}
	c := r.nextClip
	r.nextClip++

	// Inference-budget gate, at clip granularity: once the spend reaches
	// the budget the remaining clips are skipped-and-flagged without
	// touching a detector — graceful degradation, not an error, so the
	// flagged clips stay out of the failure budget.
	if r.e.cfg.InferenceBudget > 0 && r.budgetSpent >= r.e.cfg.InferenceBudget {
		for _, ps := range r.preds {
			ps.clipInd = append(ps.clipInd, false)
		}
		r.clipInd = append(r.clipInd, false)
		r.flagged = append(r.flagged, true)
		r.budgetSkipped++
		return true
	}

	// Every EstimatorSampleEvery-th clip all predicates are evaluated
	// unconditionally; only these unbiased evaluations may feed background
	// estimators and the planner's cost model (evaluations admitted by
	// short-circuiting see a stream pre-filtered by the predicates that ran
	// earlier — a biased sample under correlation).
	sampled := r.e.cfg.NoShortCircuit || c < r.e.cfg.BootstrapClips ||
		c%r.e.cfg.EstimatorSampleEvery == 0

	clear(r.clauseSat)
	copy(r.clauseLeft, r.clauseSize)
	failed := false   // some clause can no longer hold
	var clipErr error // detection failure flagging this clip
	objectFramesCharged := false
	modes := r.modesBuf()
	for _, idx := range r.planner.AppendDecisions(r.orderBuf(), modes) {
		ps := r.preds[idx]
		if clipErr != nil || r.err != nil || (!sampled && (failed || r.satisfied(ps))) {
			if clipErr == nil && r.err == nil {
				// Spared by short-circuit (not by a failure): credit the
				// planner's savings ledger.
				r.planner.Skip(idx)
			}
			ps.clipInd = append(ps.clipInd, false)
			continue
		}
		count, cost, err := r.evaluate(ps, c, modes[idx], &objectFramesCharged)
		r.budgetSpent += cost
		if err != nil {
			// Keep per-predicate indicator alignment, then decide whether
			// this is an interruption (context ended during retries) or a
			// skip-and-flag detection failure.
			ps.clipInd = append(ps.clipInd, false)
			if r.ctx.Err() != nil {
				r.err = &InterruptedError{Processed: c, Total: r.numClips, Err: r.ctx.Err()}
			} else {
				clipErr = err
			}
			continue
		}
		ps.evaluated++
		ind := count >= ps.crit
		if sampled {
			// The observed cost is the evaluation's priced inference time —
			// for cascades, the per-attempt tier spend; otherwise units
			// scored × the detector's unit cost — the simulator's
			// equivalent of measured detector latency.
			r.planner.Observe(idx, !ind, cost)
			if r.lastAcc != nil {
				r.planner.ObserveTiers(idx, r.lastAcc.Units, r.lastAcc.Escalated)
			}
		}
		if ps.est != nil && sampled {
			r.learn(ps, count)
		}
		ps.clipInd = append(ps.clipInd, ind)
		for _, ci := range ps.clauses {
			if ind {
				r.clauseSat[ci] = true
			} else if r.clauseLeft[ci]--; r.clauseLeft[ci] == 0 && !r.clauseSat[ci] {
				failed = true
			}
		}
	}
	if sampled && clipErr == nil && r.err == nil {
		r.planner.EndClip()
	}
	positive := clipErr == nil && r.err == nil
	for _, sat := range r.clauseSat {
		positive = positive && sat
	}
	r.clipInd = append(r.clipInd, positive)
	r.flagged = append(r.flagged, clipErr != nil)
	if clipErr != nil {
		r.recordFlagged(clipErr)
		r.flaggedCount++
		if float64(r.flaggedCount) > r.e.cfg.FailureBudget*float64(r.numClips) {
			r.err = &DegradedError{
				Flagged: r.flaggedCount, Processed: r.nextClip, Total: r.numClips,
				Budget: r.e.cfg.FailureBudget, Err: clipErr,
			}
		}
	}
	return true
}

// satisfied reports whether every clause the atom belongs to already holds
// on the current clip, so its evaluation cannot change the clip's outcome.
func (r *Run) satisfied(ps *predState) bool {
	for _, ci := range ps.clauses {
		if !r.clauseSat[ci] {
			return false
		}
	}
	return true
}

// learn feeds one unbiased clip count into the predicate's background
// estimation machinery: the robust quantile gate plus delayed
// neighbourhood exclusion.
//
// The gate threshold is the NullQuantile-quantile of the recent unbiased
// counts plus a binomial slack of about two standard deviations: the
// quantile locates the majority (background) behaviour even when the current
// estimate is badly off, and the slack keeps the admitted sample covering
// essentially the whole null distribution so the estimate is not censored
// downwards. Updates run one clip late so both temporal neighbours of a
// count are known: a count feeds the estimator only when it and both
// neighbours fall below the threshold, which keeps the partially covered
// boundary clips of genuine events (whose counts are individually
// indistinguishable from noise) out of the null estimate. During warm-up
// nothing is admitted and the prior holds.
func (r *Run) learn(ps *predState, count int) {
	thr, ready := r.gateThreshold(ps)

	// Ring update (the threshold above was computed before this count). The
	// ring's stale contents from a previous pooled run are never read:
	// gateThreshold waits for recentSeen to cover the whole ring.
	if len(ps.recent) != r.e.cfg.RobustWindowClips {
		ps.recent = make([]int, r.e.cfg.RobustWindowClips)
	}
	ps.recent[ps.recentPos] = count
	ps.recentPos = (ps.recentPos + 1) % len(ps.recent)
	ps.recentSeen++

	defer func() {
		ps.prev2, ps.prev1 = ps.prev1, count
		ps.lagSeen++
	}()
	if !ready || ps.lagSeen < 2 {
		return
	}
	if ps.prev1 <= thr && ps.prev2 <= thr && count <= thr {
		ps.est.TickN(ps.window, ps.prev1)
		// The critical value depends only on the estimate's grid bucket, so
		// the shared grid is consulted only on a bucket crossing — same
		// values as an unconditional At, minus the per-clip lock traffic.
		if b := ps.cache.BucketOf(ps.est.P()); !ps.hasBucket || b != ps.lastBucket {
			ps.lastBucket, ps.hasBucket = b, true
			if crit := ps.cache.AtBucket(b); crit != ps.crit {
				ps.crit = crit
				ps.recomputes++
			}
		}
	}
}

// gateThreshold derives the admission threshold from the recent-count ring.
// It is only ready once the ring is full: on a partially filled ring a
// single event occurrence could dominate the quantile, poisoning the null
// estimate with event counts that a short stream never forgets.
func (r *Run) gateThreshold(ps *predState) (thr int, ready bool) {
	if len(ps.recent) == 0 || ps.recentSeen < len(ps.recent) {
		return 0, false
	}
	n := len(ps.recent)
	sorted := r.sortBuf(n)
	copy(sorted, ps.recent[:n])
	sort.Ints(sorted)
	idx := int(r.e.cfg.NullQuantile * float64(n))
	if idx >= n {
		idx = n - 1
	}
	q := sorted[idx]
	// Rate implied by the quantile (with a light quarter-count prior so a
	// zero quantile still grants some slack), then ~2 sd of binomial slack.
	// A heavier prior would inflate the implied rate so much on small
	// windows (shots-per-clip can be as low as 2) that the threshold stops
	// excluding anything.
	w := float64(ps.window)
	pt := (float64(q) + 0.25) / (w + 0.5)
	slack := int(math.Ceil(2 * math.Sqrt(w*pt*(1-pt))))
	return q + slack, true
}

// unitCost is the priced cost of one detector invocation for a predicate
// kind (per frame for objects and relations, per shot for actions).
func (e *Engine) unitCost(kind PredicateKind) time.Duration {
	if kind == ActionPredicate {
		return e.models.Actions.UnitCost()
	}
	return e.models.Objects.UnitCost()
}

// tierInfos returns the engine's cascade description for a predicate kind
// (nil for single-tier models and for relations, which read the object
// detector's detections directly).
func (e *Engine) tierInfos(kind PredicateKind) []detect.TierInfo {
	switch kind {
	case ObjectPredicate:
		return e.objTiers
	case ActionPredicate:
		return e.actTiers
	}
	return nil
}

// entryTier maps the planner's tier decision to the cascade entry index.
func entryTier(mode plan.TierMode, tiers int) int {
	if mode == plan.TierAccurate {
		return tiers - 1
	}
	return 0
}

// evaluate runs the detector over the clip's occurrence units for one
// atom (a relation reads the object detector's detections per frame),
// records the raw indicators, charges the meter and the
// predicate's evaluation-time accumulator, and returns the positive count
// together with the evaluation's priced inference cost. Cascaded models
// execute the planner's tier decision (mode) with per-tier retry and
// accounting; the cost is then the per-attempt tier spend. A detector
// invocation that fails after retries aborts the clip's evaluation with the
// error (the caller flags the clip); the cost spent up to the failure is
// still reported so the budget ledger stays honest.
func (r *Run) evaluate(ps *predState, clip int, mode plan.TierMode, objectFramesCharged *bool) (int, time.Duration, error) {
	defer func(t0 time.Time) { ps.evalTime += time.Since(t0) }(time.Now())
	count := 0
	units0 := ps.units
	r.lastAcc = nil
	m := r.e.models
	switch ps.kind {
	case ObjectPredicate:
		fr := r.geom.FrameRangeOfClip(clip)
		if r.e.meter != nil && !*objectFramesCharged {
			// One object-detector inference per frame covers every type, so
			// a clip's frames are charged once no matter how many object
			// predicates read them.
			r.e.meter.AddObjectFrames(fr.Len())
			*objectFramesCharged = true
		}
		if len(r.e.objTiers) >= 2 {
			cs := m.Objects.(detect.CascadedObjectScorer)
			acc := r.accountBuf(detect.KindObject)
			acc.Reset(len(r.e.objTiers))
			scores := r.scoreBuf(fr.Len())
			err := cs.FrameScoreCascade(r.ctx, r.v, ps.name, fr.Start, entryTier(mode, len(r.e.objTiers)), scores, r.e.cfg.Retry, r.e.meter, acc)
			count = r.settleCascade(ps, acc, mode, scores, fr.Start, m.ObjThreshold, detect.KindObject, err)
			if err != nil {
				return 0, acc.Cost, err
			}
			return count, acc.Cost, nil
		}
		if _, fallible := m.Objects.(detect.FallibleObjectDetector); !fallible {
			// Infallible detectors cannot fail an attempt, so the whole
			// clip scores as one batch into the pooled column — same scores
			// and meter charges as the per-frame path, without its per-unit
			// interface dispatch.
			scores := r.scoreBuf(fr.Len())
			detect.FrameScoreBatch(m.Objects, r.v, ps.name, fr.Start, scores)
			r.recordAttempts(detect.KindObject, len(scores))
			ps.units += len(scores)
			for i, score := range scores {
				if score >= m.ObjThreshold {
					ps.rawInd[fr.Start+i] = true
					count++
				}
			}
			return count, time.Duration(len(scores)) * r.e.unitCost(ps.kind), nil
		}
		for f := fr.Start; f <= fr.End; f++ {
			score, err := r.objectScore(ps.name, f)
			if err != nil {
				return 0, time.Duration(ps.units-units0) * r.e.unitCost(ps.kind), err
			}
			ps.units++
			if score >= m.ObjThreshold {
				ps.rawInd[f] = true
				count++
			}
		}
	case ActionPredicate:
		sr := r.geom.ShotRangeOfClip(clip)
		if r.e.meter != nil {
			r.e.meter.AddActionShots(sr.Len())
		}
		if len(r.e.actTiers) >= 2 {
			cs := m.Actions.(detect.CascadedActionScorer)
			acc := r.accountBuf(detect.KindAction)
			acc.Reset(len(r.e.actTiers))
			scores := r.scoreBuf(sr.Len())
			err := cs.ShotScoreCascade(r.ctx, r.v, ps.name, sr.Start, entryTier(mode, len(r.e.actTiers)), scores, r.e.cfg.Retry, r.e.meter, acc)
			count = r.settleCascade(ps, acc, mode, scores, sr.Start, m.ActThreshold, detect.KindAction, err)
			if err != nil {
				return 0, acc.Cost, err
			}
			return count, acc.Cost, nil
		}
		if _, fallible := m.Actions.(detect.FallibleActionRecognizer); !fallible {
			scores := r.scoreBuf(sr.Len())
			detect.ShotScoreBatch(m.Actions, r.v, ps.name, sr.Start, scores)
			r.recordAttempts(detect.KindAction, len(scores))
			ps.units += len(scores)
			for i, score := range scores {
				if score >= m.ActThreshold {
					ps.rawInd[sr.Start+i] = true
					count++
				}
			}
			return count, time.Duration(len(scores)) * r.e.unitCost(ps.kind), nil
		}
		for s := sr.Start; s <= sr.End; s++ {
			score, err := r.actionScore(ps.name, s)
			if err != nil {
				return 0, time.Duration(ps.units-units0) * r.e.unitCost(ps.kind), err
			}
			ps.units++
			if score >= m.ActThreshold {
				ps.rawInd[s] = true
				count++
			}
		}
	case RelationPredicate:
		fr := r.geom.FrameRangeOfClip(clip)
		if r.e.meter != nil && !*objectFramesCharged {
			r.e.meter.AddObjectFrames(fr.Len())
			*objectFramesCharged = true
		}
		rel, a, b := detect.Relation(ps.atom.Name), ps.atom.Args[0], ps.atom.Args[1]
		for f := fr.Start; f <= fr.End; f++ {
			ps.units++
			if detect.RelationPositive(m.Objects, r.v, rel, a, b, f, &r.scratch.relA, &r.scratch.relB) {
				ps.rawInd[f] = true
				count++
			}
		}
	}
	return count, time.Duration(ps.units-units0) * r.e.unitCost(ps.kind), nil
}

// settleCascade folds one cascade evaluation into the predicate's state and
// the meter: thresholds the scores into raw indicators (on success),
// accumulates the per-tier accounting, flushes the tier counters, and
// leaves the account on lastAcc for the planner's escalation estimators.
// Returns the positive count.
func (r *Run) settleCascade(ps *predState, acc *detect.CascadeAccount, mode plan.TierMode, scores []float64, start int, threshold float64, kind string, err error) int {
	count := 0
	if err == nil {
		for i, score := range scores {
			if score >= threshold {
				ps.rawInd[start+i] = true
				count++
			}
		}
	}
	total := 0
	for t := range acc.Units {
		total += int(acc.Units[t])
		if t < len(ps.tierUnits) {
			ps.tierUnits[t] += acc.Units[t]
		}
		if t < len(ps.tierEscalated) {
			ps.tierEscalated[t] += acc.Escalated[t]
		}
	}
	ps.units += total
	ps.lastMode = mode
	if r.e.meter != nil {
		r.e.meter.RecordCascade(kind, r.e.tierInfos(ps.kind), acc)
	}
	r.lastAcc = acc
	return count
}

// objectScore invokes the object detector on one frame, retrying transient
// failures of fallible detectors with exponential backoff. Infallible
// detectors take the direct path. Every attempt and fault is charged to the
// meter.
func (r *Run) objectScore(typ string, frame int) (float64, error) {
	m := r.e.models
	if _, ok := m.Objects.(detect.FallibleObjectDetector); !ok {
		r.recordAttempt(detect.KindObject, 0)
		return m.Objects.FrameScore(r.v, typ, frame), nil
	}
	var s float64
	err := detect.Retry(r.ctx, r.e.cfg.Retry, func(attempt int) error {
		r.recordAttempt(detect.KindObject, attempt)
		var err error
		s, err = m.ObjectScoreAttempt(r.v, typ, frame, attempt)
		r.recordFault(err)
		return err
	})
	return s, err
}

// actionScore invokes the action recogniser on one shot, retrying transient
// failures of fallible recognisers.
func (r *Run) actionScore(act string, shot int) (float64, error) {
	m := r.e.models
	if _, ok := m.Actions.(detect.FallibleActionRecognizer); !ok {
		r.recordAttempt(detect.KindAction, 0)
		return m.Actions.ShotScore(r.v, act, shot), nil
	}
	var s float64
	err := detect.Retry(r.ctx, r.e.cfg.Retry, func(attempt int) error {
		r.recordAttempt(detect.KindAction, attempt)
		var err error
		s, err = m.ActionScoreAttempt(r.v, act, shot, attempt)
		r.recordFault(err)
		return err
	})
	return s, err
}

// recordAttempt charges one invocation attempt to the meter, if any.
func (r *Run) recordAttempt(kind string, attempt int) {
	if m := r.e.meter; m != nil {
		m.RecordAttempt(kind, attempt)
	}
}

// recordAttempts charges n first-attempt invocations in one shot (the
// batch-scoring path).
func (r *Run) recordAttempts(kind string, n int) {
	if m := r.e.meter; m != nil {
		m.RecordAttempts(kind, n)
	}
}

// recordFault charges one failed invocation attempt to the meter. Context
// errors (the run being cancelled mid-retry) are not detector faults.
func (r *Run) recordFault(err error) {
	m := r.e.meter
	if m == nil || err == nil {
		return
	}
	var de *detect.DetectionError
	if errors.As(err, &de) {
		m.RecordFault(de.Kind, de.Transient)
	}
}

// recordFlagged charges one skipped-and-flagged clip to the meter,
// attributed to the detector kind whose retries were exhausted.
func (r *Run) recordFlagged(clipErr error) {
	m := r.e.meter
	if m == nil || clipErr == nil {
		return
	}
	kind := detect.KindObject
	var de *detect.DetectionError
	if errors.As(clipErr, &de) {
		kind = de.Kind
	}
	m.RecordFlagged(kind)
}

// Sequences returns the result sequences over the clips processed so far.
func (r *Run) Sequences() video.IntervalSet { return video.FromIndicator(r.clipInd) }

// Result finalises the run. It may be called at any point; the result covers
// the clips processed so far.
func (r *Run) Result() *Result {
	res := &Result{
		Query:     r.q,
		Mode:      r.e.mode,
		Geometry:  r.geom,
		NumClips:  r.numClips,
		Processed: r.nextClip,
		Sequences: r.Sequences(),
		Flagged:   r.Flagged(),
	}
	// Report atoms in first-appearance order, regardless of the evaluation
	// order used.
	ordered := make([]*predState, 0, len(r.preds))
	for _, c := range r.q.Clauses {
		for _, a := range c.Atoms {
			if ps := r.pred(a); !slices.Contains(ordered, ps) {
				ordered = append(ordered, ps)
			}
		}
	}
	res.Predicates = make([]PredicateStats, 0, len(ordered))
	for _, ps := range ordered {
		st := PredicateStats{
			Name:           ps.name,
			Kind:           ps.kind,
			Clips:          video.FromIndicator(ps.clipInd),
			RawUnits:       video.FromIndicator(ps.rawInd),
			Background:     r.background(ps),
			Critical:       ps.crit,
			EvaluatedClips: ps.evaluated,
		}
		res.Predicates = append(res.Predicates, st)
	}
	res.Plan = r.planner.Report()
	res.InferenceCost = r.budgetSpent
	res.BudgetSkipped = r.budgetSkipped
	if res.Plan != nil && r.e.cfg.InferenceBudget > 0 {
		res.Plan.Budget = &plan.BudgetReport{
			LimitMS:      float64(r.e.cfg.InferenceBudget) / 1e6,
			SpentMS:      float64(r.budgetSpent) / 1e6,
			SkippedClips: r.budgetSkipped,
			Exhausted:    r.budgetSpent >= r.e.cfg.InferenceBudget,
		}
	}
	r.emitSpans(r.root, ordered)
	return res
}

// emitSpans surfaces the run's accounting on the context's trace, once: an
// engine-level span covering the whole run plus one span per predicate whose
// duration is the predicate's accumulated detector-evaluation time (the
// paper's per-stage cost decomposition — short-circuit savings and SVAQD
// recomputation are readable directly off the spans).
func (r *Run) emitSpans(root string, preds []*predState) {
	if r.trace == nil || r.spansEmitted {
		return
	}
	r.spansEmitted = true
	eng := r.trace.AddSpanUnder(r.parent, root, r.started, time.Since(r.started))
	eng.SetAttr("mode", r.e.mode.String())
	eng.SetAttr("clips_processed", r.nextClip)
	eng.SetAttr("num_clips", r.numClips)
	eng.SetAttr("flagged_clips", r.flaggedCount)
	if r.e.cfg.InferenceBudget > 0 {
		eng.SetAttr("tier:budget_spent_ms", float64(r.budgetSpent)/1e6)
		eng.SetAttr("tier:budget_skipped_clips", r.budgetSkipped)
	}
	if rep := r.planner.Report(); rep != nil {
		sp := r.trace.AddSpanUnder(eng, "plan.order", r.started, 0)
		sp.SetAttr("adaptive", rep.Adaptive)
		if rep.Tiered {
			sp.SetAttr("tiered", true)
		}
		sp.SetAttr("order", strings.Join(rep.Order, ","))
		sp.SetAttr("replans", rep.Replans)
		sp.SetAttr("skipped_evaluations", rep.SkippedEvaluations)
		sp.SetAttr("saved_cost_ms", rep.SavedCostMS)
	}
	for _, ps := range preds {
		sp := r.trace.AddSpanUnder(eng, "predicate:"+ps.name, r.started, ps.evalTime)
		sp.SetAttr("kind", ps.kind.label())
		sp.SetAttr("evaluated_clips", ps.evaluated)
		sp.SetAttr("units_scored", ps.units)
		sp.SetAttr("k_crit", ps.crit)
		sp.SetAttr("background", r.background(ps))
		if r.e.mode == Dynamic {
			sp.SetAttr("k_crit_recomputes", ps.recomputes)
		}
		if len(ps.tierUnits) > 0 {
			var units, escalated int64
			for t := range ps.tierUnits {
				units += ps.tierUnits[t]
				escalated += ps.tierEscalated[t]
			}
			sp.SetAttr("tier:mode", ps.lastMode.String())
			sp.SetAttr("tier:units", units)
			sp.SetAttr("tier:escalated", escalated)
		}
	}
}

func (r *Run) background(ps *predState) float64 {
	if ps.est != nil {
		return ps.est.P()
	}
	if ps.kind == ObjectPredicate {
		return r.e.cfg.P0Object
	}
	return r.e.cfg.P0Action
}
