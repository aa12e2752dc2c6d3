package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
	"time"

	"svqact/internal/detect"
)

// fullSignature renders everything a caller can observe about a result
// except the query form itself: sequences, flagged clips, progress, spend,
// every per-predicate statistic, and the plan report by value.
func fullSignature(t *testing.T, res *Result) string {
	t.Helper()
	plan, err := json.Marshal(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	s := fmt.Sprintf("mode=%v clips=%d processed=%d seq=%v flagged=%v cost=%v budget_skipped=%d plan=%s",
		res.Mode, res.NumClips, res.Processed, res.Sequences, res.Flagged, res.InferenceCost, res.BudgetSkipped, plan)
	for _, ps := range res.Predicates {
		s += fmt.Sprintf(" %+v", ps)
	}
	return s
}

// TestRunMatchesRunCNF is the one-loop contract: a basic query and its CNF
// lift run the same evaluation, so Run(q) and RunCNF(FromQuery(q)) must
// agree bit for bit under the default SVAQ and SVAQD configurations — for
// every predicate permutation, with the detector cascades on, and with an
// inference budget that binds. Run under -race in CI.
func TestRunMatchesRunCNF(t *testing.T) {
	v, err := testVideoThreeObjects(31, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	objects := []string{"car", "human", "dog"}
	variants := []struct {
		name   string
		models detect.Models
		budget time.Duration
	}{
		{"accurate", noisyModels(8), 0},
		{"cascade", cascadeModels(8), 0},
		{"cascade+budget", cascadeModels(8), 150 * time.Millisecond},
	}
	for _, mk := range []struct {
		name string
		mk   func(detect.Models, Config) (*Engine, error)
	}{{"SVAQ", NewSVAQ}, {"SVAQD", NewSVAQD}} {
		for _, vr := range variants {
			cfg := DefaultConfig()
			cfg.InferenceBudget = vr.budget
			e, err := mk.mk(vr.models, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, perm := range permutations(objects) {
				q := Query{Objects: perm, Action: "jumping"}
				basic, err := e.Run(context.Background(), v, q)
				if err != nil {
					t.Fatal(err)
				}
				lifted, err := e.RunCNF(context.Background(), v, FromQuery(q))
				if err != nil {
					t.Fatal(err)
				}
				if vr.budget > 0 && basic.BudgetSkipped == 0 {
					t.Fatalf("%s %s: the budget never bound; the case checks nothing", mk.name, vr.name)
				}
				if got, want := fullSignature(t, lifted), fullSignature(t, basic); got != want {
					t.Errorf("%s %s objects=%v:\nRunCNF %s\n   Run %s", mk.name, vr.name, perm, got, want)
				}
			}
		}
	}
}

// clausePermutations returns q with its clauses in every order, and within
// each clause its atoms in every order.
func clausePermutations(q CNF) []CNF {
	var out []CNF
	for _, order := range permutations(q.Clauses) {
		partial := [][]Clause{nil}
		for _, c := range order {
			var next [][]Clause
			for _, p := range partial {
				for _, atoms := range permutations(c.Atoms) {
					next = append(next, append(slices.Clone(p), Clause{Atoms: atoms}))
				}
			}
			partial = next
		}
		for _, cs := range partial {
			out = append(out, CNF{Clauses: cs})
		}
	}
	return out
}

// atomSignature reduces an extended result to its answer: sequences,
// flagged clips, and each atom's final k_crit and background keyed by name.
// Evaluation counts legitimately vary with the declared order.
func atomSignature(res *Result, names []string) string {
	s := fmt.Sprintf("seq=%v flagged=%v processed=%d", res.Sequences, res.Flagged, res.Processed)
	for _, n := range names {
		ps := res.Predicate(n)
		if ps == nil {
			return s + " missing " + n
		}
		s += fmt.Sprintf(" %s{k=%d p=%v}", n, ps.Critical, ps.Background)
	}
	return s
}

// TestCNFPermutationInvariance: permuting the clauses of an OR-group query
// and of a relation query, and the atoms within each clause, changes the
// planner's declared order (with DeclaredOrder, the evaluation order) and
// so which atoms short-circuiting skips, but never the answer — every
// statistic that feeds back into evaluation is learnt from sampled clips on
// which every atom ran.
func TestCNFPermutationInvariance(t *testing.T) {
	v := extVideo(t, 3, 20_000)
	queries := []struct {
		name  string
		q     CNF
		atoms []string
	}{
		{"or-group", CNF{Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping"), ActionAtom("dancing")}},
			{Atoms: []Atom{ObjectAtom("human"), ObjectAtom("dog")}},
			{Atoms: []Atom{ObjectAtom("car")}},
		}}, []string{"jumping", "dancing", "human", "dog", "car"}},
		{"relation", CNF{Clauses: []Clause{
			{Atoms: []Atom{ActionAtom("jumping")}},
			{Atoms: []Atom{RelationAtom(detect.Near, "human", "car"), ObjectAtom("dog")}},
			{Atoms: []Atom{ObjectAtom("human")}},
		}}, []string{"jumping", "near(human,car)", "dog", "human"}},
	}
	for _, mk := range []struct {
		name string
		mk   func(detect.Models, Config) (*Engine, error)
	}{{"SVAQ", NewSVAQ}, {"SVAQD", NewSVAQD}} {
		for _, models := range []struct {
			name   string
			models detect.Models
		}{{"accurate", noisyModels(6)}, {"cascade", cascadeModels(6)}} {
			for _, qc := range queries {
				var want string
				for _, declared := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.DeclaredOrder = declared
					e, err := mk.mk(models.models, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, q := range clausePermutations(qc.q) {
						res, err := e.RunCNF(context.Background(), v, q)
						if err != nil {
							t.Fatal(err)
						}
						got := atomSignature(res, qc.atoms)
						if want == "" {
							want = got
							if res.Sequences.Empty() {
								t.Fatalf("%s %s %s: empty answer; the case checks nothing", mk.name, models.name, qc.name)
							}
							continue
						}
						if got != want {
							t.Errorf("%s %s %s declared=%v %v:\n got %s\nwant %s", mk.name, models.name, qc.name, declared, q, got, want)
						}
					}
				}
			}
		}
	}
}

// TestClauseShortCircuit: off sampled clips an atom is skipped once its
// clause holds, and every later atom once a clause has failed. With the
// declared order pinned, the second atom of an OR group runs on fewer clips
// than the first, the action after the group on fewer than all, and the
// plan books the skips.
func TestClauseShortCircuit(t *testing.T) {
	v := extVideo(t, 5, 20_000)
	q := CNF{Clauses: []Clause{
		{Atoms: []Atom{ObjectAtom("human"), ObjectAtom("dog")}},
		{Atoms: []Atom{ActionAtom("jumping")}},
	}}
	cfg := DefaultConfig()
	cfg.DeclaredOrder = true
	e, err := NewSVAQD(noisyModels(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunCNF(context.Background(), v, q)
	if err != nil {
		t.Fatal(err)
	}
	human, dog, act := res.Predicate("human"), res.Predicate("dog"), res.Predicate("jumping")
	if human.EvaluatedClips != res.NumClips {
		t.Errorf("first atom evaluated on %d of %d clips", human.EvaluatedClips, res.NumClips)
	}
	if dog.EvaluatedClips >= human.EvaluatedClips {
		t.Errorf("second OR atom evaluated on %d clips, not fewer than the first's %d", dog.EvaluatedClips, human.EvaluatedClips)
	}
	if act.EvaluatedClips >= res.NumClips {
		t.Errorf("action after a failed OR group evaluated on all %d clips", res.NumClips)
	}
	if res.Plan == nil || res.Plan.SkippedEvaluations == 0 {
		t.Errorf("plan booked no short-circuit savings: %+v", res.Plan)
	}
}

// TestClauseShortCircuitSound: skipping an atom never changes a clip's
// outcome. Under SVAQ (critical values fixed, so skipping cannot reach the
// statistics) a short-circuiting run must answer exactly what a run
// evaluating every atom on every clip answers, in every clause and atom
// order — including for an atom shared by two clauses, which may be skipped
// only once both of its clauses hold.
func TestClauseShortCircuitSound(t *testing.T) {
	v := extVideo(t, 9, 20_000)
	q := CNF{Clauses: []Clause{
		{Atoms: []Atom{ActionAtom("jumping"), ObjectAtom("car")}},
		{Atoms: []Atom{ObjectAtom("car"), ObjectAtom("dog")}},
		{Atoms: []Atom{ObjectAtom("human"), ActionAtom("dancing")}},
	}}
	full := DefaultConfig()
	full.NoShortCircuit = true
	ref, err := NewSVAQ(noisyModels(3), full)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSVAQ(noisyModels(3), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range clausePermutations(q) {
		want, err := ref.RunCNF(context.Background(), v, perm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.RunCNF(context.Background(), v, perm)
		if err != nil {
			t.Fatal(err)
		}
		if want.Sequences.Empty() {
			t.Fatal("empty answer; the case checks nothing")
		}
		if got.Sequences.String() != want.Sequences.String() || got.Plan.SkippedEvaluations == 0 {
			t.Errorf("%v: short-circuit answer %v (%d skips), full evaluation %v",
				perm, got.Sequences, got.Plan.SkippedEvaluations, want.Sequences)
		}
	}
}

// TestInferenceBudgetExtended: the clip-level inference budget caps an
// extended query like a basic one — past the budget clips are skipped and
// flagged, the run completes, and the plan carries the budget block.
func TestInferenceBudgetExtended(t *testing.T) {
	v := extVideo(t, 7, 20_000)
	q := CNF{Clauses: []Clause{
		{Atoms: []Atom{ActionAtom("jumping"), ActionAtom("dancing")}},
		{Atoms: []Atom{RelationAtom(detect.Near, "human", "car")}},
	}}
	cfg := DefaultConfig()
	cfg.InferenceBudget = 500 * time.Millisecond
	e, err := NewSVAQD(cascadeModels(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunCNF(context.Background(), v, q)
	if err != nil {
		t.Fatalf("budget exhaustion must degrade, not error: %v", err)
	}
	if res.BudgetSkipped == 0 || int64(res.Flagged.TotalLen()) < res.BudgetSkipped {
		t.Errorf("budget skipped %d clips, flagged %d", res.BudgetSkipped, res.Flagged.TotalLen())
	}
	if res.Processed != res.NumClips {
		t.Errorf("run must process the whole stream, got %d of %d clips", res.Processed, res.NumClips)
	}
	if b := res.Plan.Budget; b == nil || !b.Exhausted || b.SkippedClips != res.BudgetSkipped {
		t.Errorf("budget block %+v inconsistent with result (skipped %d)", b, res.BudgetSkipped)
	}
}
