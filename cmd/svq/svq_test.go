package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/query"
	"svqact/internal/rank"
	"svqact/internal/server"
	"svqact/internal/sqlq"
	"svqact/internal/synth"
)

const (
	testScale = 0.25
	testSeed  = 42
)

func rankedSQL(source, where string) string {
	return "SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS " + source +
		" PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE " + where +
		" ORDER BY RANK(act, obj) LIMIT 5"
}

func onlineSQL(where string) string {
	return "SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID) WHERE " + where
}

func testModels() detect.Models {
	return detect.NewModels(detect.NewObjectDetector(detect.MaskRCNN, testSeed), detect.NewActionRecognizer(detect.I3D, testSeed))
}

// buildMovieRepo ingests the movies into a repository the way cmd/ingest
// does and returns its directory.
func buildMovieRepo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	repo, err := rank.OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, v := range synth.Movies(synth.Options{Scale: testScale, Seed: testSeed}).Videos {
		ix, err := rank.Ingest(context.Background(), v, testModels(), rank.PaperScoring(), rank.DefaultIngestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := repo.Add(ix); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

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

// TestRankedORGroupCLI: the CLI answers a ranked OR group, lazily ingested
// and from a repository.
func TestRankedORGroupCLI(t *testing.T) {
	dir := buildMovieRepo(t)
	where := "(act='kissing' OR act='fighting') AND obj.include('boat')"
	for name, o := range map[string]options{
		"lazy": {query: rankedSQL("titanic", where)},
		"repo": {query: rankedSQL("repo", where), repo: dir},
	} {
		o.scale, o.seed, o.p0 = testScale, testSeed, 1e-4
		var out bytes.Buffer
		if err := run(&out, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out.String(), "RVAQ-CNF top-5") || !strings.Contains(out.String(), "#1 ") {
			t.Errorf("%s: no ranked answer printed:\n%s", name, out.String())
		}
	}
}

// TestOneStatementOneAnswer: every plan shape gives the same sequences
// through serve's /query, the executor and the svq code path; online
// answers also equal a direct core.Engine run.
func TestOneStatementOneAnswer(t *testing.T) {
	dir := buildMovieRepo(t)
	lazySrv := httptest.NewServer(server.New(server.Config{Scale: testScale, Seed: testSeed}).Handler())
	defer lazySrv.Close()
	repoServer := server.New(server.Config{Scale: testScale, Seed: testSeed, RepoDir: dir})
	if err := repoServer.Reload(); err != nil {
		t.Fatal(err)
	}
	repoSrv := httptest.NewServer(repoServer.Handler())
	defer repoSrv.Close()
	repo, err := rank.OpenRepository(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	merged, err := repo.Merged()
	if err != nil {
		t.Fatal(err)
	}
	exec := query.New(query.Config{Models: testModels(), Engine: core.DefaultConfig(), Scale: testScale, Seed: testSeed})
	yt := synth.YouTube(synth.Options{Scale: testScale, Seed: testSeed})
	var q2 []*synth.Video
	for _, v := range yt.Videos {
		if !v.ActionPresence("blowing_leaves").Empty() {
			q2 = append(q2, v)
		}
	}
	stream, err := synth.NewConcat("q2", q2)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, sql, algo string
		repo            bool
	}{
		{"basic SVAQD", onlineSQL("act='blowing_leaves' AND obj.include('car')"), "", false},
		{"basic SVAQ", onlineSQL("act='blowing_leaves' AND obj.include('car')"), "svaq", false},
		{"extended OR", onlineSQL("(act='blowing_leaves' OR act='kneeling') AND obj.include('car')"), "", false},
		{"rel.near", onlineSQL("act='blowing_leaves' AND rel.near('person','car')"), "", false},
		{"ranked basic lazy movie", rankedSQL("titanic", "act='kissing' AND obj.include('boat')"), "", false},
		{"ranked basic lazy query set", rankedSQL("q2", "act='blowing_leaves' AND obj.include('car')"), "", false},
		{"ranked OR lazy movie", rankedSQL("titanic", "(act='kissing' OR act='fighting') AND obj.include('boat')"), "", false},
		{"ranked OR lazy query set", rankedSQL("q2", "(act='blowing_leaves' OR act='kneeling') AND obj.include('car')"), "", false},
		{"ranked basic repo", rankedSQL("repo", "act='kissing' AND obj.include('boat')"), "", true},
		{"ranked OR repo", rankedSQL("repo", "(act='kissing' OR act='fighting') AND obj.include('boat')"), "", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := mustPlan(t, c.sql)
			url, req, o := lazySrv.URL, query.Request{Algo: c.algo}, options{query: c.sql, algo: c.algo, scale: testScale, seed: testSeed, p0: 1e-4}
			if c.repo {
				url, req.Index, o.repo = repoSrv.URL, merged, dir
			}
			body, _ := json.Marshal(server.QueryRequest{SQL: c.sql, Algo: c.algo})
			resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var served server.QueryResponse
			err = json.NewDecoder(resp.Body).Decode(&served)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("/query: status %d, %v", resp.StatusCode, err)
			}
			direct, err := exec.Execute(context.Background(), p, req)
			if err != nil {
				t.Fatal(err)
			}
			var meter detect.Meter
			_, cli, err := answer(o, testModels(), &meter)
			if err != nil {
				t.Fatal(err)
			}
			if len(direct.Sequences) == 0 {
				t.Fatal("no sequences; the case checks nothing")
			}
			if !reflect.DeepEqual(served.Sequences, direct.Sequences) {
				t.Errorf("/query %v\nexecutor %v", served.Sequences, direct.Sequences)
			}
			if !reflect.DeepEqual(cli.Sequences, direct.Sequences) {
				t.Errorf("svq %v\nexecutor %v", cli.Sequences, direct.Sequences)
			}
			if !p.Online {
				return
			}
			eng, err := core.NewSVAQD(testModels(), core.DefaultConfig())
			if c.algo == "svaq" {
				eng, err = core.NewSVAQ(testModels(), core.DefaultConfig())
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []query.Sequence
			if p.Extended {
				res, err := eng.RunCNF(context.Background(), stream, p.CNF)
				if err != nil {
					t.Fatal(err)
				}
				got = query.Sequences(res.Sequences, stream.Geometry())
			} else {
				res, err := eng.Run(context.Background(), stream, p.Query)
				if err != nil {
					t.Fatal(err)
				}
				got = query.Sequences(res.Sequences, stream.Geometry())
			}
			if !reflect.DeepEqual(got, direct.Sequences) {
				t.Errorf("core %v\nexecutor %v", got, direct.Sequences)
			}
		})
	}
}
