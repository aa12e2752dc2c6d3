package rank

import (
	"context"
	"fmt"

	"svqact/internal/core"
	"svqact/internal/plan"
	"svqact/internal/store"
	"svqact/internal/video"
)

// Ranked extended queries: RVAQ generalises from the basic
// one-action-plus-objects conjunction to CNF queries over object and action
// atoms (the footnote 3-4 extensions). Candidate sequences intersect, per
// clause, the union of the atoms' individual sequences; clip scores take
// the maximum ingested score within each clause and multiply across
// clauses — monotone in every atom score, so all of §4.1's requirements
// (and therefore the bound machinery) carry over unchanged.
//
// Relation atoms are not supported offline: their per-frame indicators
// derive from instance geometry that the ingestion phase does not
// materialise per type pair (doing so would square the table space).

// tableScorer maps the full per-table score vector of a clip to its overall
// score. It generalises ClipScorer beyond the basic "objects then action"
// table layout.
type tableScorer interface {
	scoreTables(scores []float64) float64
}

// cnfTableScorer scores a clip under a CNF query: the maximum atom score
// within each clause, multiplied across clauses.
type cnfTableScorer struct {
	clauses [][]int // atom (table) indexes per clause
}

func (s cnfTableScorer) scoreTables(scores []float64) float64 {
	p := 1.0
	for _, cl := range s.clauses {
		m := 0.0
		for _, i := range cl {
			if scores[i] > m {
				m = scores[i]
			}
		}
		p *= m
	}
	return p
}

// cnfTables resolves one table per distinct ingested atom and the clause
// structure over the table indexes. Atoms the index never ingested are
// dropped from their clause; only a clause left with no ingested atom
// makes the query unanswerable here (NotIngestedError). Tables come back in planner order (cheapest
// expected cost to reject first, from each atom table's length and
// sequence coverage) with the clause references remapped accordingly — no
// caller may assume any fixed atom layout.
func (ix *Index) cnfTables(q core.CNF, st *store.Stats) ([]store.Table, [][]int, []video.IntervalSet, *plan.Report, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, nil, nil, err
	}
	var tis []*TypeIndex
	var nodes []plan.Node
	index := map[string]int{}
	clauses := make([][]int, len(q.Clauses))
	for ci, c := range q.Clauses {
		for _, a := range c.Atoms {
			key := a.String()
			i, ok := index[key]
			if !ok {
				var ti *TypeIndex
				switch a.Kind {
				case core.ObjectPredicate:
					ti = ix.Objects[a.Name]
				case core.ActionPredicate:
					ti = ix.Actions[a.Name]
				default:
					return nil, nil, nil, nil, fmt.Errorf("rank: relation atom %s is not supported offline", a)
				}
				if ti == nil {
					// An atom the index never ingested scores 0 on every
					// clip and has no sequences, so it adds nothing to its
					// clause's max or union: drop it.
					continue
				}
				i = len(tis)
				tis = append(tis, ti)
				nodes = append(nodes, plan.Node{
					Name:        key,
					PriorCost:   tableAccessCost(ti.Table),
					PriorReject: tableRejectPrior(ti.Seqs, ix.NumClips),
				})
				index[key] = i
			}
			clauses[ci] = append(clauses[ci], i)
		}
		if len(clauses[ci]) == 0 {
			return nil, nil, nil, nil, &NotIngestedError{Kind: "atom", Name: fmt.Sprint(c.Atoms[0])}
		}
	}
	pl := plan.New(nodes, plan.Options{})
	order := pl.Order()
	// order[planPos] = declared atom index; invert it to remap the clause
	// references onto plan positions.
	toPlan := make([]int, len(order))
	tables := make([]store.Table, len(order))
	seqs := make([]video.IntervalSet, len(order))
	for planPos, d := range order {
		toPlan[d] = planPos
		tables[planPos] = store.WithStats(tis[d].Table, st)
		seqs[planPos] = tis[d].Seqs
	}
	for ci := range clauses {
		for j, d := range clauses[ci] {
			clauses[ci][j] = toPlan[d]
		}
	}
	return tables, clauses, seqs, pl.Report(), nil
}

// PqCNF computes the candidate sequences of a CNF query: per clause, the
// union of the atoms' individual sequences; across clauses, the interval
// intersection.
func (ix *Index) PqCNF(q core.CNF) (video.IntervalSet, error) {
	var st store.Stats
	_, clauses, seqs, _, err := ix.cnfTables(q, &st)
	if err != nil {
		return video.IntervalSet{}, err
	}
	sets := make([]video.IntervalSet, len(clauses))
	for ci, refs := range clauses {
		var u video.IntervalSet
		for _, i := range refs {
			u = u.Union(seqs[i])
		}
		sets[ci] = u
	}
	return video.IntersectAll(sets...), nil
}

// RVAQCNF answers a ranked CNF query with the RVAQ machinery over per-atom
// tables. Like RVAQ it honours ctx between iterator rounds.
func RVAQCNF(ctx context.Context, ix *Index, q core.CNF, k int, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.Scoring.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("rank: k = %d must be positive", k)
	}
	name := "RVAQ-CNF"
	if opts.NoSkip {
		name = "RVAQ-CNF-noSkip"
	}
	res := &Result{Algorithm: name, K: k}
	tables, clauses, seqs, rep, err := ix.cnfTables(q, &res.Stats)
	if err != nil {
		return nil, err
	}
	res.Plan = rep
	sets := make([]video.IntervalSet, len(clauses))
	for ci, refs := range clauses {
		var u video.IntervalSet
		for _, i := range refs {
			u = u.Union(seqs[i])
		}
		sets[ci] = u
	}
	pq := video.IntersectAll(sets...)
	res.Candidates = pq.NumIntervals()
	if pq.Empty() {
		return res, nil
	}
	scorer := cnfTableScorer{clauses: clauses}
	if err := topkRun(ctx, res, tables, scorer, opts, pq, k); err != nil {
		return nil, err
	}
	return res, nil
}

// TruthTopKCNF exhaustively scores every CNF candidate sequence — the test
// reference for RVAQCNF.
func TruthTopKCNF(ix *Index, q core.CNF, k int, scoring Scoring) ([]SeqResult, error) {
	var st store.Stats
	tables, clauses, _, _, err := ix.cnfTables(q, &st)
	if err != nil {
		return nil, err
	}
	pq, err := ix.PqCNF(q)
	if err != nil {
		return nil, err
	}
	scorer := cnfTableScorer{clauses: clauses}
	f := scoring.Seq
	scoreCol := make([]float64, len(tables))
	var out []SeqResult
	for _, iv := range pq.Intervals() {
		sum := f.Zero()
		for c := iv.Start; c <= iv.End; c++ {
			s, err := scoreClip(tables, scorer, c, scoreCol)
			if err != nil {
				return nil, err
			}
			sum = f.Combine(sum, f.OfClip(s))
		}
		out = append(out, SeqResult{Seq: iv, Lower: sum, Upper: sum, Exact: true})
	}
	sortSeqResults(out)
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}
