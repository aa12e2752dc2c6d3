package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"svqact/internal/synth"
)

// Dataset parameters are fixed per workload: the seed argument varies only
// the op sequence, so every seed serves the same data and the same op
// catalog, and setup work does not depend on the seed.
const dataSeed = 42

// Op kinds.
const (
	kindQuery    = "query"      // basic SVAQD statement on /query
	kindSVAQ     = "query_svaq" // basic statement with "algo":"svaq"
	kindExtended = "extended"   // OR of two actions or rel.near, via RunCNF
	kindBatch    = "batch"      // basic statement on /query/batch (RunAll)
	kindRanked   = "ranked"     // ranked conjunctive statement (RVAQ)
	kindRankCNF  = "ranked_cnf" // ranked OR-group statement (RVAQCNF)
	kindCommit   = "commit"     // rank.Save of one member + POST /repo/reload
)

// template is one request of a workload's fixed op catalog.
type template struct {
	Kind   string
	Path   string // HTTP path; empty for a commit
	SQL    string
	Algo   string
	Member string // commit target member
	Weight float64
	Body   []byte
}

// workload is a named op catalog with its mix and dataset scale.
type workload struct {
	Name      string
	Scale     float64
	Mix       map[string]float64 // kind -> share of ops
	Templates []template
}

// workloadByName returns one of the three workloads:
//   - online: streaming SVAQ/SVAQD over the YouTube query sets, where core,
//     detect and plan do the work;
//   - ranked: RVAQ top-k on a repo-backed server with occasional commits,
//     where rank and store do the work;
//   - cluster: the ranked mix scattered over two repo-backed shards by a
//     coordinator, where the cluster layer and the JSON/HTTP hops dominate.
func workloadByName(name string) (*workload, error) {
	switch name {
	case "online":
		return onlineWorkload(), nil
	case "ranked":
		return rankedWorkload("ranked", 1.0, 1.0/250), nil
	case "cluster":
		return rankedWorkload("cluster", 0.25, 0), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want online, ranked or cluster)", name)
}

func onlineWorkload() *workload {
	w := &workload{
		Name:  "online",
		Scale: 1.0,
		Mix:   map[string]float64{kindQuery: 0.60, kindSVAQ: 0.15, kindExtended: 0.10, kindBatch: 0.15},
	}
	qs := synth.YouTubeQueries()
	for i, q := range qs {
		from := fmt.Sprintf("FROM (PROCESS %s PRODUCE clipID) WHERE ", q.Name)
		one := fmt.Sprintf("act='%s' AND obj.include('%s')", q.Action, q.Objects[0])
		basic := "SELECT MERGE(clipID) AS s " + from + one
		w.add(template{Kind: kindQuery, Path: "/query", SQL: basic})
		if len(q.Objects) > 1 {
			all := fmt.Sprintf("act='%s' AND obj.include('%s')", q.Action, strings.Join(q.Objects, "','"))
			w.add(template{Kind: kindQuery, Path: "/query", SQL: "SELECT MERGE(clipID) AS s " + from + all})
		}
		w.add(template{Kind: kindSVAQ, Path: "/query", SQL: basic, Algo: "svaq"})
		other := qs[(i+1)%len(qs)].Action
		w.add(template{Kind: kindExtended, Path: "/query", SQL: fmt.Sprintf(
			"SELECT MERGE(clipID) AS s %s(act='%s' OR act='%s') AND obj.include('%s')", from, q.Action, other, q.Objects[0])})
		w.add(template{Kind: kindExtended, Path: "/query", SQL: fmt.Sprintf(
			"SELECT MERGE(clipID) AS s %sact='%s' AND rel.near('person','%s')", from, q.Action, q.Objects[0])})
		w.add(template{Kind: kindBatch, Path: "/query/batch", SQL: basic})
	}
	w.finish()
	return w
}

// rankedWorkload is the ranked mix over the four movie queries; commitShare
// of the ops are commits (0 for the cluster, whose coordinator serves
// reads only).
func rankedWorkload(name string, scale, commitShare float64) *workload {
	w := &workload{Name: name, Scale: scale,
		Mix: map[string]float64{kindRanked: 0.8 * (1 - commitShare), kindRankCNF: 0.2 * (1 - commitShare)}}
	if commitShare > 0 {
		w.Mix[kindCommit] = commitShare
	}
	for _, q := range synth.MovieQueries() {
		for _, k := range []int{1, 5, 10, 25} {
			w.add(template{Kind: kindRanked, Path: "/query", SQL: rankedSQL(
				fmt.Sprintf("act='%s' AND obj.include('%s')", q.Action, strings.Join(q.Objects, "','")), k)})
			// The OR group pairs the movie's action with one every movie
			// has, so every shard holding the movie holds every atom; see
			// crossShardOR for OR groups spanning two movies' vocabularies.
			w.add(template{Kind: kindRankCNF, Path: "/query", SQL: rankedSQL(
				fmt.Sprintf("(act='%s' OR act='%s') AND obj.include('%s')", q.Action, sharedAction, q.Objects[0]), k)})
		}
		if commitShare > 0 {
			w.add(template{Kind: kindCommit, Member: q.Name})
		}
	}
	w.finish()
	return w
}

// sharedAction is an action the movie dataset scripts into every movie.
const sharedAction = "fighting"

func rankedSQL(where string, k int) string {
	return "SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) WHERE " +
		where + fmt.Sprintf(" ORDER BY RANK(act, obj) LIMIT %d", k)
}

// crossShardOR returns ranked OR groups pairing one movie's action with
// the next movie's. On the cluster, a shard holding the first movie but not
// the second lacks an atom of the group; these statements check that such
// a shard still answers from the atoms it holds. They are sent once per
// run, outside the timed loop.
func crossShardOR() []template {
	qs := synth.MovieQueries()
	var out []template
	for i, q := range qs {
		out = append(out, template{Kind: kindRankCNF, Path: "/query", SQL: rankedSQL(
			fmt.Sprintf("(act='%s' OR act='%s') AND obj.include('%s')", q.Action, qs[(i+1)%len(qs)].Action, q.Objects[0]), 10)})
	}
	return out
}

func (w *workload) add(t template) { w.Templates = append(w.Templates, t) }

// finish spreads each kind's share evenly over its templates and encodes
// the request bodies.
func (w *workload) finish() {
	count := map[string]int{}
	for _, t := range w.Templates {
		count[t.Kind]++
	}
	for i := range w.Templates {
		t := &w.Templates[i]
		t.Weight = w.Mix[t.Kind] / float64(count[t.Kind])
		if t.Path != "" {
			t.encodeBody()
		}
	}
}

func (t *template) encodeBody() {
	body := map[string]any{"sql": t.SQL}
	if t.Algo != "" {
		body["algo"] = t.Algo
	}
	t.Body, _ = json.Marshal(body) // a map of strings always encodes
}

// deckSize is the number of ops in which every template appears in
// proportion to its weight.
const deckSize = 1000

// opSequence returns n template indexes: decks holding each template
// round(weight*deckSize) times, each deck shuffled by a generator seeded
// with seed. The same seed always gives the same sequence, and every seed
// gives the same mix within each deck, so seeds differ in op order only.
func (w *workload) opSequence(seed int64, n int) []int {
	var deck []int
	for i, t := range w.Templates {
		for c := int(math.Round(t.Weight * deckSize)); c > 0; c-- {
			deck = append(deck, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, 0, n+len(deck))
	for len(seq) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		seq = append(seq, deck...)
	}
	return seq[:n]
}

// mixString renders the op mix for the config key, in a stable order.
func (w *workload) mixString() string {
	kinds := make([]string, 0, len(w.Mix))
	for k := range w.Mix {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var parts []string
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%.4f", k, w.Mix[k]))
	}
	return strings.Join(parts, ",")
}
