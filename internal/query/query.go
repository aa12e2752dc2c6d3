// Package query is the one statement executor: serve's /query and
// /query/batch, the svq CLI, the sqlshell example and the in-process
// cluster shard all hand it a parsed sqlq.Plan. The plan's shape picks the
// algorithm — SVAQ/SVAQD (core.Engine.Run) for a streaming conjunction,
// RunCNF for an extended streaming statement, RVAQ or RVAQCNF for a ranked
// one — so a statement has one answer whichever surface serves it.
//
// The executor also owns the source catalog. A PROCESS source names a
// stream of the synthetic benchmark datasets: q1..q12 are the YouTube query
// sets (the videos of the set containing its action, concatenated), any
// other name is a movie title. A ranked statement answered without a
// repository ingests its source lazily, video by video, and caches the
// index.
package query

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/obs"
	"svqact/internal/plan"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
	"svqact/internal/synth"
	"svqact/internal/video"
)

// Config parameterises an Executor.
type Config struct {
	// Models are the detection models online runs and lazy ingestion use.
	Models detect.Models
	// Engine is the engine configuration every run and ingestion starts
	// from; a request's Budget overrides its InferenceBudget.
	Engine core.Config
	// Scale and Seed generate the catalog's datasets.
	Scale float64
	Seed  int64
	// Shard marks one shard of a cluster. A shard holds only its own
	// videos' vocabulary, so a ranked statement naming a type it never
	// ingested answers "no candidates here" instead of failing: other
	// shards of the repository may hold the type.
	Shard bool
}

// Request carries the knobs a caller may set beside the statement. Each
// knob is honoured by the plan shapes it applies to and rejected with a
// BadRequestError on the others, never silently dropped.
type Request struct {
	// Algo selects the online algorithm: "svaqd" (or empty) or "svaq".
	Algo string
	// K, when positive, overrides a ranked statement's LIMIT.
	K int
	// Budget, when positive, caps a basic online statement's simulated
	// inference spend.
	Budget time.Duration
	// Index, when set, answers ranked statements (a loaded repository or a
	// shard) instead of the catalog's lazily ingested sources.
	Index *rank.Index
}

// Sequence is one result sequence. Ranked answers resolve clips to the
// member video and report member-local clip ids, plus the score bounds
// (rank.Bounds): Lower == Upper when Exact, and a scatter-gather
// coordinator merges shards on the bounds rather than the point score.
// Frame ranges are derived from the video's geometry; a repository-backed
// answer has none (the repository stores clip score tables, not video
// geometry).
type Sequence struct {
	StartClip  int     `json:"start_clip"`
	EndClip    int     `json:"end_clip"`
	StartFrame int     `json:"start_frame"`
	EndFrame   int     `json:"end_frame"`
	Score      float64 `json:"score,omitempty"`
	Video      string  `json:"video,omitempty"`
	Lower      float64 `json:"lower,omitempty"`
	Upper      float64 `json:"upper,omitempty"`
	Exact      bool    `json:"exact,omitempty"`
}

// Answer is one executed statement: the body of a /query response less the
// request's identity and trace.
type Answer struct {
	Source     string     `json:"source"`
	Mode       string     `json:"mode"` // SVAQ, SVAQD or RVAQ
	Extended   bool       `json:"extended,omitempty"`
	K          int        `json:"k,omitempty"`
	Candidates int        `json:"candidates,omitempty"`
	NumClips   int        `json:"num_clips"`
	Sequences  []Sequence `json:"sequences"`
	// FlaggedClips counts clips skipped after detector retry exhaustion or
	// past the inference budget (online statements only).
	FlaggedClips int   `json:"flagged_clips,omitempty"`
	ElapsedMS    int64 `json:"elapsed_ms"`
	// RandomAccesses counts offline table accesses (ranked only).
	RandomAccesses int64 `json:"random_accesses,omitempty"`
	// Truncated reports that ranked candidates beyond the returned top-k
	// exist; ResidualUpper then bounds every omitted candidate's score —
	// the coordinator's distributed Blo_K pruning signal.
	Truncated     bool    `json:"truncated,omitempty"`
	ResidualUpper float64 `json:"residual_upper,omitempty"`
	// Generation is the repository generation that answered; the caller
	// holding the repository fills it in.
	Generation int `json:"generation,omitempty"`
	// Plan reports the predicate-ordering plan the statement executed with.
	// Ordering never changes results.
	Plan *plan.Report `json:"plan,omitempty"`

	// The engine's own result, for surfaces that print its diagnostics:
	// exactly one is set unless a shard answered a vocabulary miss empty.
	Online *core.Result         `json:"-"`
	CNF    *core.ExtendedResult `json:"-"`
	Ranked *rank.Result         `json:"-"`
}

// BadRequestError is a statement or request knob the executor refuses;
// HTTP surfaces answer it with 400.
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return e.Msg }

// NotFoundError is a PROCESS source the catalog does not know; HTTP
// surfaces answer it with 404.
type NotFoundError struct{ Source string }

func (e *NotFoundError) Error() string { return fmt.Sprintf("unknown source %q", e.Source) }

func badRequest(format string, args ...any) error {
	return &BadRequestError{Msg: fmt.Sprintf(format, args...)}
}

// Executor runs planned statements. It is safe for concurrent use.
type Executor struct {
	cfg Config

	once    sync.Once
	youtube *synth.Dataset
	movies  *synth.Dataset

	mu      sync.Mutex
	streams map[string]detect.TruthVideo
	indexes map[string]*rank.Index
}

// New creates an executor. The catalog's datasets generate on first use.
func New(cfg Config) *Executor {
	return &Executor{cfg: cfg, streams: map[string]detect.TruthVideo{}, indexes: map[string]*rank.Index{}}
}

// check rejects every request knob the plan's shape would not honour.
func check(p sqlq.Plan, r Request) error {
	switch {
	case r.K < 0:
		return badRequest("query: k = %d must not be negative", r.K)
	case r.Budget < 0:
		return badRequest("query: an inference budget (budget_ms) of %v must not be negative", r.Budget)
	case p.Online && r.K != 0:
		return badRequest("query: k overrides a ranked statement's LIMIT; this statement is online")
	case p.Online && p.Extended && r.Budget != 0:
		return badRequest("query: an inference budget (budget_ms) is not honoured by extended (OR group or relation) online statements")
	case !p.Online && r.Algo != "":
		return badRequest("query: algo selects an online algorithm; this statement is ranked")
	case !p.Online && r.Budget != 0:
		return badRequest("query: an inference budget (budget_ms) caps online inference; this statement is ranked")
	}
	return nil
}

// Execute runs one planned statement.
func (e *Executor) Execute(ctx context.Context, p sqlq.Plan, r Request) (Answer, error) {
	start := time.Now()
	if err := check(p, r); err != nil {
		return Answer{}, err
	}
	a := Answer{Source: p.Source, Extended: p.Extended}
	var err error
	if p.Online {
		err = e.online(ctx, p, r, &a)
	} else {
		err = e.ranked(ctx, p, r, &a)
	}
	if err != nil {
		return Answer{}, err
	}
	a.ElapsedMS = time.Since(start).Milliseconds()
	return a, nil
}

// engine builds the online engine an algorithm name selects.
func (e *Executor) engine(algo string, budget time.Duration) (*core.Engine, error) {
	cfg := e.cfg.Engine
	if budget > 0 {
		cfg.InferenceBudget = budget
	}
	switch algo {
	case "", "svaqd":
		return core.NewSVAQD(e.cfg.Models, cfg)
	case "svaq":
		return core.NewSVAQ(e.cfg.Models, cfg)
	}
	return nil, badRequest("query: unknown algo %q (want svaq or svaqd)", algo)
}

func (e *Executor) online(ctx context.Context, p sqlq.Plan, r Request, a *Answer) error {
	eng, err := e.engine(r.Algo, r.Budget)
	if err != nil {
		return err
	}
	stream, err := e.resolve(p.Source)
	if err != nil {
		return err
	}
	a.Mode = eng.Mode().String()
	if p.Extended {
		res, err := eng.RunCNF(ctx, stream, p.CNF)
		if err != nil {
			return err
		}
		a.CNF, a.NumClips, a.FlaggedClips = res, res.NumClips, res.Flagged.TotalLen()
		a.Sequences = Sequences(res.Sequences, res.Geometry)
		return nil
	}
	res, err := eng.Run(ctx, stream, p.Query)
	if err != nil {
		return err
	}
	a.Online, a.Plan, a.NumClips, a.FlaggedClips = res, res.Plan, res.NumClips, res.Flagged.TotalLen()
	a.Sequences = Sequences(res.Sequences, res.Geometry)
	return nil
}

func (e *Executor) ranked(ctx context.Context, p sqlq.Plan, r Request, a *Answer) error {
	a.Mode, a.K = "RVAQ", p.K
	if r.K > 0 {
		a.K = r.K
	}
	ix, lazy := r.Index, r.Index == nil
	if lazy {
		var err error
		if ix, err = e.index(ctx, p.Source); err != nil {
			return err
		}
	}
	a.NumClips = ix.NumClips
	var res *rank.Result
	var err error
	if p.Extended {
		res, err = rank.RVAQCNF(ctx, ix, p.CNF, a.K, rank.Options{})
	} else {
		res, err = rank.RVAQ(ctx, ix, p.Query, a.K, rank.Options{})
	}
	if err != nil {
		var miss *rank.NotIngestedError
		if !e.cfg.Shard || !errors.As(err, &miss) {
			return err
		}
		// Record the empty top-k stage so an assembled cluster trace shows
		// why this shard contributed nothing.
		obs.StartSpan(ctx, "rank.topk").SetAttr("candidates", 0).SetAttr("not_ingested", miss.Error()).End()
		return nil
	}
	a.Ranked, a.Plan, a.Mode = res, res.Plan, res.Algorithm
	a.Candidates, a.RandomAccesses = res.Candidates, res.Stats.Random
	a.Truncated, a.ResidualUpper = res.Truncated, res.ResidualUpper
	for _, sr := range res.Sequences {
		vid, local := ix.Resolve(sr.Seq.Start)
		s := Sequence{StartClip: local, EndClip: local + sr.Seq.Len() - 1, Video: vid,
			Score: sr.Score(), Lower: sr.Lower, Upper: sr.Upper, Exact: sr.Exact}
		if lazy {
			fr := e.video(vid).Geometry().FrameRangeOfClips(video.Interval{Start: s.StartClip, End: s.EndClip})
			s.StartFrame, s.EndFrame = fr.Start, fr.End
		}
		a.Sequences = append(a.Sequences, s)
	}
	return nil
}

// RunAll evaluates a basic online statement over every video of its source
// as a bounded-concurrency fleet (core.Engine.RunAll) and reports the
// engine's mode. A nil result comes with an error; a non-nil one may come
// with the error that cut the fleet short.
func (e *Executor) RunAll(ctx context.Context, p sqlq.Plan, algo string, opts core.FleetOptions) (*core.FleetResult, string, error) {
	if !p.Online {
		return nil, "", badRequest("batch evaluation requires an online (streaming) statement; offline top-k queries use /query")
	}
	if p.Extended {
		return nil, "", badRequest("batch evaluation supports the basic one-action conjunction only")
	}
	eng, err := e.engine(algo, 0)
	if err != nil {
		return nil, "", err
	}
	stream, err := e.resolve(p.Source)
	if err != nil {
		return nil, "", err
	}
	fr, err := eng.RunAll(ctx, components(stream), p.Query, opts)
	if fr == nil {
		return nil, "", &BadRequestError{Msg: err.Error()}
	}
	return fr, eng.Mode().String(), err
}

// Sequences converts result clip intervals to sequences with their frame
// ranges under g; no intervals give nil.
func Sequences(set video.IntervalSet, g video.Geometry) []Sequence {
	ivs := set.Intervals()
	if len(ivs) == 0 {
		return nil
	}
	out := make([]Sequence, len(ivs))
	for i, iv := range ivs {
		fr := g.FrameRangeOfClips(iv)
		out[i] = Sequence{StartClip: iv.Start, EndClip: iv.End, StartFrame: fr.Start, EndFrame: fr.End}
	}
	return out
}

func (e *Executor) datasets() (*synth.Dataset, *synth.Dataset) {
	e.once.Do(func() {
		e.youtube = synth.YouTube(synth.Options{Scale: e.cfg.Scale, Seed: e.cfg.Seed})
		e.movies = synth.Movies(synth.Options{Scale: e.cfg.Scale, Seed: e.cfg.Seed})
	})
	return e.youtube, e.movies
}

// Sources lists the resolvable PROCESS sources, sorted.
func (e *Executor) Sources() []string {
	yt, mv := e.datasets()
	var out []string
	for _, q := range yt.Queries {
		out = append(out, q.Name)
	}
	for _, v := range mv.Videos {
		out = append(out, v.ID())
	}
	sort.Strings(out)
	return out
}

// video finds a catalog video by ID, or nil.
func (e *Executor) video(id string) *synth.Video {
	yt, mv := e.datasets()
	if v := mv.Video(id); v != nil {
		return v
	}
	return yt.Video(id)
}

// resolve maps a PROCESS source to its stream: a movie, or a query set's
// videos concatenated.
func (e *Executor) resolve(name string) (detect.TruthVideo, error) {
	e.mu.Lock()
	v, ok := e.streams[name]
	e.mu.Unlock()
	if ok {
		return v, nil
	}
	yt, mv := e.datasets()
	var stream detect.TruthVideo
	if v := mv.Video(name); v != nil {
		stream = v
	} else if spec := yt.Query(name); spec != nil {
		var vids []*synth.Video
		for _, v := range yt.Videos {
			if !v.ActionPresence(spec.Action).Empty() {
				vids = append(vids, v)
			}
		}
		c, err := synth.NewConcat(name, vids)
		if err != nil {
			return nil, err
		}
		stream = c
	} else {
		return nil, &NotFoundError{Source: name}
	}
	e.mu.Lock()
	e.streams[name] = stream
	e.mu.Unlock()
	return stream, nil
}

// components lists a stream's videos: a concatenation's members, or the
// stream itself.
func components(stream detect.TruthVideo) []detect.TruthVideo {
	c, ok := stream.(*synth.Concat)
	if !ok {
		return []detect.TruthVideo{stream}
	}
	out := make([]detect.TruthVideo, len(c.Components()))
	for i, v := range c.Components() {
		out[i] = v
	}
	return out
}

// index lazily ingests a source for ranked statements: a query set video by
// video into one merged index, a movie as itself.
func (e *Executor) index(ctx context.Context, name string) (*rank.Index, error) {
	e.mu.Lock()
	ix, ok := e.indexes[name]
	e.mu.Unlock()
	if ok {
		return ix, nil
	}
	stream, err := e.resolve(name)
	if err != nil {
		return nil, err
	}
	icfg := rank.DefaultIngestConfig()
	icfg.Core = e.cfg.Engine
	if _, multi := stream.(*synth.Concat); multi {
		ix, err = rank.IngestAllParallel(ctx, name, components(stream), e.cfg.Models, rank.PaperScoring(), icfg, 0)
	} else {
		ix, err = rank.Ingest(ctx, stream, e.cfg.Models, rank.PaperScoring(), icfg)
	}
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.indexes[name] = ix
	e.mu.Unlock()
	return ix, nil
}
