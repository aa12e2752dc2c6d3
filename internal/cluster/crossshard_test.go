package cluster

import (
	"context"
	"fmt"
	"testing"

	"svqact/internal/rank"
	"svqact/internal/sqlq"
)

// TestCrossShardORGroupsMatchMonolith: shards whose vocabularies differ
// each answer an OR group from the atoms they hold, so every cross-shard OR
// group equals the exact top-k over the unsplit index.
func TestCrossShardORGroupsMatchMonolith(t *testing.T) {
	// vid-i (alone on shard 0 at n=2) knows running and boat instead of
	// jumping and car, so each shard lacks some atom of every group below.
	byName := map[string]*rank.Index{}
	var all []*rank.Index
	for i, m := range testMembers {
		ix := memberIndex(t, m, 300+int64(i*17))
		if m == "vid-i" {
			ix.Actions = map[string]*rank.TypeIndex{"running": ix.Actions["jumping"]}
			ix.Objects = map[string]*rank.TypeIndex{"boat": ix.Objects["car"]}
		}
		byName[m] = ix
		all = append(all, ix)
	}
	var shardIxs []*rank.Index
	for i, g := range PartitionMembers(testMembers, 2) {
		var ixs []*rank.Index
		for _, m := range g {
			ixs = append(ixs, byName[m])
		}
		merged, err := rank.Merge(fmt.Sprintf("shard%d", i), ixs)
		if err != nil {
			t.Fatal(err)
		}
		shardIxs = append(shardIxs, merged)
	}
	mono, err := rank.Merge("mono", all)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(localShards(shardIxs), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, where := range []string{
		"(act='jumping' OR act='running') AND obj.include('car')",
		"(act='jumping' OR act='running') AND (obj.include('car') OR obj.include('boat'))",
		"act='running' AND (obj.include('boat') OR obj.include('car'))",
	} {
		for _, k := range []int{1, 4, 9} {
			sql := fmt.Sprintf(`SELECT MERGE(clipID) AS s, RANK(act, obj)
FROM (PROCESS repo PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE %s ORDER BY RANK(act, obj) LIMIT %d`, where, k)
			st, err := sqlq.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			p, err := st.Plan()
			if err != nil {
				t.Fatal(err)
			}
			truth, err := rank.TruthTopKCNF(mono, p.CNF, k, rank.PaperScoring())
			if err != nil {
				t.Fatal(err)
			}
			if len(truth) == 0 {
				t.Fatalf("%s: the monolith has no answer; the test checks nothing", where)
			}
			var want []RankedSeq
			for _, r := range truth {
				vid, local := mono.Resolve(r.Seq.Start)
				want = append(want, RankedSeq{Video: vid, StartClip: local, EndClip: local + r.Seq.Len() - 1, Score: r.Score()})
			}
			res, err := c.TopK(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s k=%d: %v", where, k, err)
			}
			assertSameSeqs(t, res.Sequences, want)
		}
	}
}
