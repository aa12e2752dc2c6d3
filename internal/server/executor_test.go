package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"svqact/internal/synth"
	"svqact/internal/video"
)

const (
	knobBasicSQL    = `SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID) WHERE act='blowing_leaves' AND obj.include('car')`
	knobExtendedSQL = `SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID) WHERE (act='blowing_leaves' OR act='kneeling') AND obj.include('car')`
	knobRankedSQL   = `SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS titanic PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE act='kissing' AND obj.include('boat') ORDER BY RANK(act, obj) LIMIT 3`
)

// TestRequestKnobs: on every route, each request field is honoured by the
// plan shapes it applies to and rejected with a 400 naming the field on
// the others — never silently dropped.
func TestRequestKnobs(t *testing.T) {
	srv := testServer(t)
	shapes := map[string]string{"basic": knobBasicSQL, "extended": knobExtendedSQL, "ranked": knobRankedSQL}
	type knob struct {
		field string
		value any
	}
	cases := []struct {
		route, shape string
		knob         knob
		status       int
		// honoured checks a 200 answer reflects the knob.
		honoured func(QueryResponse) bool
	}{
		{"/query", "basic", knob{}, 200, nil},
		{"/query", "basic", knob{"algo", "svaq"}, 200, func(r QueryResponse) bool { return r.Mode == "SVAQ" }},
		{"/query", "basic", knob{"algo", "rvaq"}, 400, nil},
		{"/query", "basic", knob{"k", 3}, 400, nil},
		{"/query", "basic", knob{"k", -1}, 400, nil},
		{"/query", "basic", knob{"budget_ms", 1}, 200, func(r QueryResponse) bool { return r.FlaggedClips > 0 }},
		{"/query", "basic", knob{"budget_ms", -1}, 400, nil},
		{"/query", "basic", knob{"workers", 2}, 400, nil},
		{"/query", "extended", knob{}, 200, nil},
		{"/query", "extended", knob{"algo", "svaq"}, 200, func(r QueryResponse) bool { return r.Mode == "SVAQ" }},
		{"/query", "extended", knob{"algo", "rvaq"}, 400, nil},
		{"/query", "extended", knob{"k", 3}, 400, nil},
		{"/query", "extended", knob{"budget_ms", 1}, 400, nil},
		{"/query", "ranked", knob{}, 200, func(r QueryResponse) bool { return r.K == 3 }},
		{"/query", "ranked", knob{"k", 5}, 200, func(r QueryResponse) bool { return r.K == 5 }},
		{"/query", "ranked", knob{"k", -1}, 400, nil},
		{"/query", "ranked", knob{"algo", "svaq"}, 400, nil},
		{"/query", "ranked", knob{"algo", "svaqd"}, 400, nil},
		{"/query", "ranked", knob{"budget_ms", 1}, 400, nil},
		{"/query/batch", "basic", knob{}, 200, nil},
		{"/query/batch", "basic", knob{"algo", "svaq"}, 200, nil},
		{"/query/batch", "basic", knob{"algo", "rvaq"}, 400, nil},
		{"/query/batch", "basic", knob{"workers", 2}, 200, nil},
		{"/query/batch", "basic", knob{"k", 3}, 400, nil},
		{"/query/batch", "basic", knob{"budget_ms", 1}, 400, nil},
		{"/query/batch", "extended", knob{}, 400, nil},
		{"/query/batch", "ranked", knob{}, 400, nil},
	}
	for _, c := range cases {
		body := map[string]any{"sql": shapes[c.shape]}
		if c.knob.field != "" {
			body[c.knob.field] = c.knob.value
		}
		name := c.route + " " + c.shape + " " + c.knob.field
		resp, data := post(t, srv.URL+c.route, body)
		if resp.StatusCode != c.status {
			t.Errorf("%s=%v: status %d, want %d: %s", name, c.knob.value, resp.StatusCode, c.status, data)
			continue
		}
		if c.status == http.StatusBadRequest && c.knob.field != "" && !strings.Contains(string(data), c.knob.field) {
			t.Errorf("%s=%v: 400 does not name the field: %s", name, c.knob.value, data)
		}
		if c.honoured != nil {
			var qr QueryResponse
			if err := json.Unmarshal(data, &qr); err != nil {
				t.Fatal(err)
			}
			if !c.honoured(qr) {
				t.Errorf("%s=%v: knob not honoured: %s", name, c.knob.value, data)
			}
		}
	}
}

// TestRankedMultiVideoClips: a ranked answer over a query set (ingested
// video by video) reports each sequence in its own video's clip ids and
// frames, not in the concatenated stream's.
func TestRankedMultiVideoClips(t *testing.T) {
	const scale, seed = 0.5, 1
	srv := httptest.NewServer(New(Config{Scale: scale, Seed: seed}).Handler())
	defer srv.Close()
	resp, data := post(t, srv.URL+"/query", QueryRequest{SQL: `SELECT MERGE(clipID) AS s, RANK(act, obj)
FROM (PROCESS q2 PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE act='blowing_leaves' AND obj.include('car') ORDER BY RANK(act, obj) LIMIT 10`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatal(err)
	}
	yt := synth.YouTube(synth.Options{Scale: scale, Seed: seed})
	first := ""
	for _, v := range yt.Videos {
		if !v.ActionPresence("blowing_leaves").Empty() {
			first = v.ID()
			break
		}
	}
	later := 0
	for _, s := range qr.Sequences {
		v := yt.Video(s.Video)
		if v == nil {
			t.Fatalf("sequence %+v names no video of the set", s)
		}
		if s.EndClip >= v.Meta.NumClips() {
			t.Errorf("sequence %+v ends past %s's %d clips", s, s.Video, v.Meta.NumClips())
		}
		fr := v.Geometry().FrameRangeOfClips(video.Interval{Start: s.StartClip, End: s.EndClip})
		if s.StartFrame != fr.Start || s.EndFrame != fr.End {
			t.Errorf("sequence %+v: frames want %d..%d", s, fr.Start, fr.End)
		}
		if s.Video != first {
			later++
		}
	}
	if later == 0 {
		t.Fatalf("no answer beyond the set's first video; the test checks nothing: %s", data)
	}
}
