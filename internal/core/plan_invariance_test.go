package core

import (
	"context"
	"fmt"
	"testing"

	"svqact/internal/detect"
	"svqact/internal/synth"
	"svqact/internal/video"
)

// testVideoThreeObjects is testVideo with a third, uncorrelated object so
// every 3-object predicate permutation can be exercised.
func testVideoThreeObjects(seed int64, frames int) (*synth.Video, error) {
	return synth.Generate(synth.Script{
		ID:       "core-test-3obj",
		Frames:   frames,
		FPS:      10,
		Geometry: video.DefaultGeometry,
		Seed:     seed,
		Actions:  []synth.ActionSpec{{Name: "jumping", MeanGapShots: 90, MeanDurShots: 30}},
		Objects: []synth.ObjectSpec{
			{Name: "human", MeanDurFrames: 300, CorrelatedWith: "jumping", CorrelationProb: 0.95},
			{Name: "car", MeanGapFrames: 4000, MeanDurFrames: 500, CorrelatedWith: "jumping", CorrelationProb: 0.75},
			{Name: "dog", MeanGapFrames: 6000, MeanDurFrames: 400},
		},
	})
}

// permutations returns every ordering of xs (Heap's algorithm).
func permutations[T any](xs []T) [][]T {
	var out [][]T
	var rec func(k int, a []T)
	rec = func(k int, a []T) {
		if k == 1 {
			out = append(out, append([]T(nil), a...))
			return
		}
		for i := 0; i < k; i++ {
			rec(k-1, a)
			if k%2 == 0 {
				a[i], a[k-1] = a[k-1], a[i]
			} else {
				a[0], a[k-1] = a[k-1], a[0]
			}
		}
	}
	rec(len(xs), append([]T(nil), xs...))
	return out
}

// invariantSignature reduces a result to the parts the refactor's
// correctness contract pins: the result sequences, the flagged set, and
// each predicate's final critical value and background estimate. Evaluation
// counts and raw-indicator coverage legitimately vary with the order.
func invariantSignature(t *testing.T, res *Result) string {
	t.Helper()
	s := fmt.Sprintf("seq=%v flagged=%v processed=%d", res.Sequences, res.Flagged, res.Processed)
	// Predicates keyed by name so declared order drops out.
	byName := map[string]string{}
	for _, ps := range res.Predicates {
		byName[ps.Name] = fmt.Sprintf("k=%d p=%v", ps.Critical, ps.Background)
	}
	for _, name := range []string{"car", "human", "jumping"} {
		if sig, ok := byName[name]; ok {
			s += fmt.Sprintf(" %s{%s}", name, sig)
		}
	}
	return s
}

// TestOrderInvariance is the refactor's correctness contract: because clip
// truth is a pure conjunction and every statistic that feeds back into
// evaluation (SVAQD's background estimators, the planner's cost model) is
// learned only from unbiased fully-evaluated clips, the predicate
// evaluation order — declared, permuted, action-first, or chosen
// adaptively by the planner — cannot change the result sequences, the
// flagged set, or any predicate's final k_crit and background estimate.
func TestOrderInvariance(t *testing.T) {
	v := testVideo(t, 21, 20_000)
	objects := []string{"car", "human"}

	for _, mk := range []struct {
		name string
		mk   func(detect.Models, Config) (*Engine, error)
	}{{"SVAQ", NewSVAQ}, {"SVAQD", NewSVAQD}} {
		var want string
		for _, perm := range permutations(objects) {
			for _, actionFirst := range []bool{false, true} {
				for _, declared := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.ActionFirst = actionFirst
					cfg.DeclaredOrder = declared
					e, err := mk.mk(noisyModels(7), cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := e.Run(context.Background(), v, Query{Objects: perm, Action: "jumping"})
					if err != nil {
						t.Fatal(err)
					}
					got := invariantSignature(t, res)
					if want == "" {
						want = got
						continue
					}
					if got != want {
						t.Errorf("%s objects=%v actionFirst=%v declared=%v:\n got %s\nwant %s",
							mk.name, perm, actionFirst, declared, got, want)
					}
				}
			}
		}
	}
}

// TestOrderInvarianceThreeObjects covers all six object permutations on a
// shorter stream, adaptive and pinned, under SVAQD.
func TestOrderInvarianceThreeObjects(t *testing.T) {
	v, err := testVideoThreeObjects(31, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	objects := []string{"car", "human", "dog"}
	var want string
	for _, perm := range permutations(objects) {
		for _, declared := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.DeclaredOrder = declared
			e, err := NewSVAQD(noisyModels(8), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(context.Background(), v, Query{Objects: perm, Action: "jumping"})
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("seq=%v flagged=%v", res.Sequences, res.Flagged)
			for _, name := range append(objects, "jumping") {
				ps := res.Predicate(name)
				got += fmt.Sprintf(" %s{k=%d p=%v}", name, ps.Critical, ps.Background)
			}
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("objects=%v declared=%v:\n got %s\nwant %s", perm, declared, got, want)
			}
		}
	}
}
