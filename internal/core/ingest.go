package core

import (
	"context"
	"fmt"
	"slices"

	"svqact/internal/detect"
	"svqact/internal/video"
)

// EvaluateTypes runs the engine's per-clip indicator machinery over each
// given object and action type independently — the evaluation mode of the
// offline ingestion phase (paper §4.2), which materialises one set of
// "individual sequences" (maximal runs of positive clips) per type. No
// conjunction or short-circuiting applies: every type is evaluated on every
// clip, and in Dynamic mode every clip feeds the background estimators
// (subject to the robust quantile gate). It is the query loop (Run.Step)
// over one clause holding every type, with every clip sampled, the declared
// order kept and no inference budget.
//
// The returned maps give the positive-clip interval set per object type and
// per action type.
//
// The context is checked between clips: ingestion of a long video aborts
// promptly (with an *InterruptedError) when the caller goes away. Clips
// whose detector invocations fail after retries are flagged per predicate
// (indicator negative); past the failure budget the evaluation aborts with a
// *DegradedError.
func (e *Engine) EvaluateTypes(ctx context.Context, v detect.TruthVideo, objects, actions []string) (map[string]video.IntervalSet, map[string]video.IntervalSet, error) {
	atoms := make([]Atom, 0, len(objects)+len(actions))
	for _, o := range objects {
		atoms = append(atoms, ObjectAtom(o))
	}
	for _, a := range actions {
		atoms = append(atoms, ActionAtom(a))
	}
	for i, a := range atoms {
		if a.Name == "" || slices.ContainsFunc(atoms[:i], a.same) {
			return nil, nil, fmt.Errorf("core: empty or duplicate %s type %q", a.Kind.label(), a.Name)
		}
	}
	ing := *e
	ing.cfg.NoShortCircuit, ing.cfg.ActionFirst, ing.cfg.InferenceBudget = true, false, 0
	run, err := ing.newRun(ctx, v, CNF{Clauses: []Clause{{Atoms: atoms}}}, nil, "")
	if err != nil {
		return nil, nil, err
	}
	// The returned maps are materialised fresh by video.FromIndicator, so
	// the scratch can go back to the pool on every exit path.
	defer run.release()
	for run.Step() {
	}
	if err := run.Err(); err != nil {
		return nil, nil, err
	}
	objSeqs := make(map[string]video.IntervalSet, len(objects))
	actSeqs := make(map[string]video.IntervalSet, len(actions))
	for _, ps := range run.preds {
		set := video.FromIndicator(ps.clipInd)
		if ps.kind == ObjectPredicate {
			objSeqs[ps.name] = set
		} else {
			actSeqs[ps.name] = set
		}
	}
	return objSeqs, actSeqs, nil
}
