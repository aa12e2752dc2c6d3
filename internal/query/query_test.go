package query

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/obs"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
)

func mustPlan(t *testing.T, sql string) sqlq.Plan {
	t.Helper()
	st, err := sqlq.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := st.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newExecutor(shard bool) *Executor {
	return New(Config{
		Models: detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, 42), detect.NewActionRecognizer(detect.I3D, 42)),
		Engine: core.DefaultConfig(), Scale: 0.05, Seed: 42, Shard: shard,
	})
}

// TestExecuteConcurrent: concurrent statements over the shared catalog
// (stream and lazily ingested index caches) answer exactly as serial ones.
func TestExecuteConcurrent(t *testing.T) {
	sqls := []string{
		`SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID) WHERE act='blowing_leaves' AND obj.include('car')`,
		`SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID) WHERE (act='blowing_leaves' OR act='kneeling') AND obj.include('car')`,
		`SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS q2 PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE act='blowing_leaves' AND obj.include('car') ORDER BY RANK(act, obj) LIMIT 3`,
		`SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS titanic PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE act='kissing' AND obj.include('boat') ORDER BY RANK(act, obj) LIMIT 3`,
	}
	plans := make([]sqlq.Plan, len(sqls))
	want := make([][]Sequence, len(sqls))
	for i, sql := range sqls {
		plans[i] = mustPlan(t, sql)
		a, err := newExecutor(false).Execute(context.Background(), plans[i], Request{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a.Sequences
	}
	e := newExecutor(false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range sqls {
				i := (g + j) % len(sqls)
				a, err := e.Execute(context.Background(), plans[i], Request{})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(a.Sequences, want[i]) {
					t.Errorf("statement %d: concurrent answer %v, serial %v", i, a.Sequences, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardVocabularyMiss: only a shard answers a ranked statement naming
// a type it never ingested empty, with the empty rank.topk stage traced.
func TestShardVocabularyMiss(t *testing.T) {
	ix, err := newExecutor(false).index(context.Background(), "titanic")
	if err != nil {
		t.Fatal(err)
	}
	p := mustPlan(t, `SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE act='no_such_action' AND obj.include('boat') ORDER BY RANK(act, obj) LIMIT 3`)
	var miss *rank.NotIngestedError
	if _, err := newExecutor(false).Execute(context.Background(), p, Request{Index: ix}); !errors.As(err, &miss) {
		t.Fatalf("monolith: err = %v, want NotIngestedError", err)
	}
	trace := obs.NewTrace("0123456789abcdef")
	a, err := newExecutor(true).Execute(obs.WithTrace(context.Background(), trace), p, Request{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sequences != nil || a.Mode != "RVAQ" || a.K != 3 || a.NumClips != ix.NumClips {
		t.Errorf("shard answer %+v, want empty RVAQ top-3 over %d clips", a, ix.NumClips)
	}
	if sp := trace.Snapshot().Find("rank.topk"); sp == nil || sp.Attrs["not_ingested"] == nil {
		t.Errorf("shard trace lacks the empty rank.topk stage: %+v", trace.Snapshot())
	}
}
