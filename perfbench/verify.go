package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
	"svqact/internal/synth"
	"svqact/internal/video"
)

// references computes the expected answer of a template with the same
// build's library calls, bypassing HTTP and the server:
//   - online: core.Engine Run / RunCNF / RunAll on the same stream with the
//     algorithm the request named;
//   - ranked and cluster: rank.TruthTopK / TruthTopKCNF, the exhaustive
//     top-k over the unsplit repository's merged index.
type references struct {
	sys     *system
	yt      *synth.Dataset
	merged  *rank.Index
	closeFn func()
	cache   map[string]string // template kind|algo|sql -> canonical answer
}

func newReferences(sys *system) (*references, error) {
	ref := &references{sys: sys, cache: map[string]string{}}
	if sys.wl.Name == "online" {
		ref.yt = synth.YouTube(synth.Options{Scale: sys.wl.Scale, Seed: dataSeed})
		return ref, nil
	}
	repo, err := rank.OpenRepository(sys.repoDir)
	if err != nil {
		return nil, err
	}
	ref.closeFn = func() { repo.Close() }
	if ref.merged, err = repo.Merged(); err != nil {
		repo.Close()
		return nil, err
	}
	return ref, nil
}

func (ref *references) close() {
	if ref.closeFn != nil {
		ref.closeFn()
	}
}

// stream builds the server's stream for a query-set source: the
// concatenation of the set's videos that contain its action.
func (ref *references) videos(source string) ([]*synth.Video, error) {
	spec := ref.yt.Query(source)
	if spec == nil {
		return nil, fmt.Errorf("unknown source %q", source)
	}
	var vids []*synth.Video
	for _, v := range ref.yt.Videos {
		if !v.ActionPresence(spec.Action).Empty() {
			vids = append(vids, v)
		}
	}
	return vids, nil
}

// expected returns the canonical expected answer of a template.
func (ref *references) expected(t *template) (string, error) {
	key := t.Kind + "|" + t.Algo + "|" + t.SQL
	if a, ok := ref.cache[key]; ok {
		return a, nil
	}
	st, err := sqlq.Parse(t.SQL)
	if err != nil {
		return "", err
	}
	plan, err := st.Plan()
	if err != nil {
		return "", err
	}
	var ans string
	if plan.Online {
		ans, err = ref.online(t, plan)
	} else {
		ans, err = ref.ranked(plan)
	}
	if err != nil {
		return "", fmt.Errorf("reference for %q: %w", t.SQL, err)
	}
	ref.cache[key] = ans
	return ans, nil
}

func (ref *references) online(t *template, plan sqlq.Plan) (string, error) {
	ctx := context.Background()
	var eng *core.Engine
	var err error
	if t.Algo == "svaq" {
		eng, err = core.NewSVAQ(models(), core.DefaultConfig())
	} else {
		eng, err = core.NewSVAQD(models(), core.DefaultConfig())
	}
	if err != nil {
		return "", err
	}
	vids, err := ref.videos(plan.Source)
	if err != nil {
		return "", err
	}
	if t.Kind == kindBatch {
		tvs := make([]detect.TruthVideo, len(vids))
		for i, v := range vids {
			tvs[i] = v
		}
		fr, err := eng.RunAll(ctx, tvs, plan.Query, core.FleetOptions{Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			return "", err
		}
		var out string
		for _, vr := range fr.Videos {
			var seqs []seqJSON
			if vr.Result != nil {
				seqs = intervals(vr.Result.Sequences.Intervals())
			}
			out += fmt.Sprintf("%s:%s:%s;", vr.ID, vr.Outcome(), clipRanges(seqs))
		}
		return out, nil
	}
	stream, err := synth.NewConcat(plan.Source, vids)
	if err != nil {
		return "", err
	}
	if plan.Extended {
		res, err := eng.RunCNF(ctx, stream, plan.CNF)
		if err != nil {
			return "", err
		}
		return clipRanges(intervals(res.Sequences.Intervals())), nil
	}
	res, err := eng.Run(ctx, stream, plan.Query)
	if err != nil {
		return "", err
	}
	return clipRanges(intervals(res.Sequences.Intervals())), nil
}

func intervals(ivs []video.Interval) []seqJSON {
	out := make([]seqJSON, len(ivs))
	for i, iv := range ivs {
		out[i] = seqJSON{StartClip: iv.Start, EndClip: iv.End}
	}
	return out
}

func (ref *references) ranked(plan sqlq.Plan) (string, error) {
	var rs []rank.SeqResult
	var err error
	if plan.Extended {
		rs, err = rank.TruthTopKCNF(ref.merged, plan.CNF, plan.K, rank.PaperScoring())
	} else {
		rs, err = rank.TruthTopK(ref.merged, plan.Query, plan.K, rank.PaperScoring())
	}
	if err != nil {
		return "", err
	}
	seqs := make([]seqJSON, len(rs))
	for i, r := range rs {
		vid, local := ref.merged.Resolve(r.Seq.Start)
		seqs[i] = seqJSON{Video: vid, StartClip: local, EndClip: local + r.Seq.Len() - 1, Score: r.Score()}
	}
	return rankedString(seqs), nil
}

// matches reports whether an answer equals the expected one. Ranked
// answers match rank by rank on score; entries may differ only where
// scores tie, since tied sequences may come back in either order.
func matches(kind, got, want string) (bool, error) {
	if kind != kindRanked && kind != kindRankCNF {
		return got == want, nil
	}
	g, err := parseRanked(got)
	if err != nil {
		return false, err
	}
	w, err := parseRanked(want)
	if err != nil {
		return false, err
	}
	if len(g) != len(w) {
		return false, nil
	}
	for i := range g {
		if math.Abs(g[i].Score-w[i].Score) > 1e-9*math.Max(1, math.Abs(w[i].Score)) {
			return false, nil
		}
		same := g[i].Video == w[i].Video && g[i].StartClip == w[i].StartClip && g[i].EndClip == w[i].EndClip
		if !same && !tied(w, i) {
			return false, nil
		}
	}
	return true, nil
}

// tied reports whether the i-th expected entry shares its score with a
// neighbour or sits at the cut-off, where an equal-scored sequence may
// replace it.
func tied(w []seqJSON, i int) bool {
	eq := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }
	return (i > 0 && eq(w[i-1].Score, w[i].Score)) || (i+1 < len(w) && eq(w[i+1].Score, w[i].Score)) || i == len(w)-1
}

// check verifies every sample's answer, marking wrong ones failed, and
// returns how many were wrong.
func check(ref *references, samples []sample, errs *[]string) (int, error) {
	verdict := map[answerKey]bool{}
	wrong := 0
	for i := range samples {
		s := &samples[i]
		if !s.ok || ref.sys.wl.Templates[s.tmpl].Kind == kindCommit {
			continue
		}
		key := answerKey{s.tmpl, s.ans}
		good, seen := verdict[key]
		if !seen {
			t := &ref.sys.wl.Templates[s.tmpl]
			want, err := ref.expected(t)
			if err != nil {
				return 0, err
			}
			if good, err = matches(t.Kind, s.ans, want); err != nil {
				return 0, err
			}
			verdict[key] = good
			if !good && len(*errs) < 10 {
				*errs = append(*errs, wrongAnswer(t, s.ans, want))
			}
		}
		if !good {
			s.ok = false
			wrong++
		}
	}
	return wrong, nil
}

func wrongAnswer(t *template, got, want string) string {
	return fmt.Sprintf("wrong answer to %q:\n  got  %s\n  want %s", t.SQL, truncate([]byte(got)), truncate([]byte(want)))
}

// crossShardNote sends every crossShardOR statement once (ranked
// workloads only), prints each answer that differs from the reference to
// standard error, and returns the count with a one-line description.
func crossShardNote(r *runner, sys *system) (int, string, error) {
	if sys.wl.Name == "online" {
		return 0, "", nil
	}
	ref, err := newReferences(sys)
	if err != nil {
		return 0, "", err
	}
	defer ref.close()
	probes := crossShardOR()
	bad := 0
	for _, t := range probes {
		t.encodeBody()
		status, body, err := r.send(r.clients[0], &t)
		if err != nil {
			return 0, "", err
		}
		if status != 200 {
			return 0, "", fmt.Errorf("cross-shard OR probe answered %d: %s", status, truncate(body))
		}
		got, _, err := canonicalAnswer(&t, body)
		if err != nil {
			return 0, "", err
		}
		want, err := ref.expected(&t)
		if err != nil {
			return 0, "", err
		}
		good, err := matches(t.Kind, got, want)
		if err != nil {
			return 0, "", err
		}
		if !good {
			bad++
			fmt.Fprintln(os.Stderr, "perfbench: cross-shard OR group:", wrongAnswer(&t, got, want))
		}
	}
	return bad, fmt.Sprintf("cross-shard OR groups (untimed, not in the mix): %d of %d answered differently from the unsplit repository's exact top-k",
		bad, len(probes)), nil
}
