// Package server exposes the query engine over HTTP: statements of the
// SQL-like dialect are POSTed to /query and run through the shared statement
// executor (internal/query) — streaming (SVAQ/SVAQD) or ranked offline (RVAQ
// over a loaded repository or lazily ingested sources) according to the
// statement's plan.
//
// The serving path is hardened for unattended operation: every query runs
// under a deadline and the client's cancellation, admission control bounds
// the number of concurrent queries (excess requests wait briefly, then get
// 429 with Retry-After), request bodies are size-limited, and handler panics
// are contained and reported as JSON 500s instead of tearing down the
// connection.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"regexp"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/obs"
	"svqact/internal/plan"
	"svqact/internal/query"
	"svqact/internal/sqlq"
)

// Config parameterises a server instance.
type Config struct {
	// Scale and Seed control the benchmark datasets served.
	Scale float64
	Seed  int64

	// QueryTimeout bounds the execution of one query; 0 means 30s and a
	// negative value disables the deadline (the client's disconnect still
	// cancels).
	QueryTimeout time.Duration
	// MaxConcurrent bounds the queries executing at once; 0 means 8.
	MaxConcurrent int
	// QueueDepth bounds how many requests may wait for an execution slot
	// beyond MaxConcurrent; 0 means 16. Requests beyond the queue are
	// rejected immediately with 429.
	QueueDepth int
	// QueueWait bounds how long a queued request waits for a slot before
	// giving up with 429; 0 means 2s.
	QueueWait time.Duration
	// MaxBodyBytes bounds the /query request body; 0 means 1 MiB.
	MaxBodyBytes int64

	// Workers bounds the videos a /query/batch fleet evaluates concurrently;
	// <= 0 means GOMAXPROCS. A request's "workers" field, when positive,
	// overrides it per batch.
	Workers int

	// RepoDir, when set, answers offline (RVAQ) statements from the saved
	// repository at that directory instead of lazily ingesting the
	// synthetic datasets. Call Reload (or POST /repo/reload) to load it and
	// to pick up newly committed generations without restarting.
	RepoDir string

	// ShardName, when set, marks this process as one shard of a cluster:
	// every response carries it in the X-SVQ-Shard header and /healthz
	// reports it, so a coordinator (and an operator reading traces) can
	// attribute answers to shards.
	ShardName string

	// Cascade runs the detectors as tiered cascades: a recall-complete
	// distilled cheap tier in front of each accurate model, with the
	// planner pricing per-query tier decisions. Results are identical to
	// the accurate models alone; only cost and the tier observability
	// change.
	Cascade bool
	// InferenceBudget caps the simulated inference cost of one online
	// query; 0 means unlimited. A request's budget_ms field, when positive,
	// overrides it per query. Exhaustion degrades gracefully: remaining
	// clips are skipped-and-flagged and the plan report carries the budget
	// block.
	InferenceBudget time.Duration

	// Fault, when set, wraps the detection models with the fault injector —
	// the operational testbed for the retry and skip-and-flag machinery.
	// With Cascade it composes per tier: each tier keeps its own fault
	// realisation and its own retry budget.
	Fault *detect.FaultConfig
	// Retry and FailureBudget configure the engines built per query; zero
	// values take the core defaults.
	Retry         detect.RetryConfig
	FailureBudget float64

	// Logger receives structured operational log lines (one per query,
	// plus panic reports); nil means slog.Default().
	Logger *slog.Logger

	// Registry receives the server's metrics and serves /metrics; nil means
	// a fresh registry per server, keeping test instances independent.
	Registry *obs.Registry

	// Traces is the retained trace store behind /debug/traces (errors,
	// degraded answers, tail latency, and a sampled remainder); nil means a
	// default-sized one.
	Traces *obs.TraceStore
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Traces == nil {
		c.Traces = obs.NewTraceStore(obs.TraceStoreConfig{})
	}
	return c
}

// Server answers statements through one query.Executor, which resolves
// sources against the benchmark datasets and caches lazily ingested indexes.
// It is safe for concurrent use.
type Server struct {
	cfg    Config
	exec   *query.Executor
	start  time.Time
	log    *slog.Logger
	reg    *obs.Registry
	traces *obs.TraceStore

	// sem holds one token per admitted query. The admission and outcome
	// counters live on the registry, so /healthz and /metrics read the same
	// instruments.
	sem      chan struct{}
	waiting  *obs.Gauge
	inflight *obs.Gauge
	served   *obs.Counter
	rejected *obs.Counter
	panics   *obs.Counter

	// latency is the end-to-end /query execution histogram; rankSorted and
	// rankRandom accumulate offline score-table accesses across queries.
	latency    *obs.Histogram
	rankSorted *obs.Counter
	rankRandom *obs.Counter

	// Predicate-planner instruments, fed from every query's plan report
	// (online, offline and batch alike).
	planQueries *obs.Counter
	planReplans *obs.Counter
	planSkipped *obs.Counter
	planSavedMS *obs.Counter

	// Tier instruments: queries whose plan carried a detector cascade,
	// units escalated past their entry tier, and inference-budget outcomes.
	planTierQueries     *obs.Counter
	planTierEscalations *obs.Counter
	planBudgetSkipped   *obs.Counter
	planBudgetExhausted *obs.Counter

	// Fleet instruments: batches served, end-to-end batch latency, and
	// per-outcome video counts across every /query/batch fleet.
	fleetBatches *obs.Counter
	fleetLatency *obs.Histogram
	fleetVideos  map[string]*obs.Counter

	// meter is the process-lifetime inference meter every engine charges
	// (wired through core.Config.Meter, so ingestion engines deep inside
	// rank charge it too).
	meter detect.Meter

	// Repository serving state (see repo.go): the live refcounted handle,
	// whether the last reload failed, and the durability instruments.
	repoMu         sync.Mutex
	repo           *repoHandle
	repoFailed     bool
	repoErr        string
	repoLoadedAt   time.Time
	repoGeneration *obs.Gauge
	repoMembers    *obs.Gauge
	repoReloads    map[string]*obs.Counter
	repoCorruption *obs.Counter
	repoRecoveries *obs.Counter
}

// New creates a server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		start:  time.Now(),
		log:    cfg.Logger,
		reg:    cfg.Registry,
		traces: cfg.Traces,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
	}
	engine := core.DefaultConfig()
	if cfg.Retry.Attempts > 0 {
		engine.Retry = cfg.Retry
	}
	if cfg.FailureBudget > 0 {
		engine.FailureBudget = cfg.FailureBudget
	}
	engine.InferenceBudget = cfg.InferenceBudget
	engine.Meter = &s.meter
	s.exec = query.New(query.Config{Models: buildModels(cfg), Engine: engine,
		Scale: cfg.Scale, Seed: cfg.Seed, Shard: cfg.ShardName != ""})
	r := s.reg
	s.waiting = r.Gauge("svqact_queries_waiting",
		"Requests queued for an execution slot.")
	s.inflight = r.Gauge("svqact_queries_inflight",
		"Queries currently executing.")
	s.served = r.Counter("svqact_queries_served_total",
		"Admitted queries whose handler completed (any status).")
	s.rejected = r.Counter("svqact_queries_rejected_total",
		"Requests rejected by admission control with 429.")
	s.panics = r.Counter("svqact_panics_total",
		"Handler panics contained by the recovery middleware.")
	s.latency = r.Histogram("svqact_query_duration_seconds",
		"End-to-end /query execution latency.", nil)
	s.rankSorted = r.Counter("svqact_rank_sorted_accesses_total",
		"Sorted score-table accesses performed by offline queries.")
	s.rankRandom = r.Counter("svqact_rank_random_accesses_total",
		"Random score-table accesses performed by offline queries.")
	s.planQueries = r.Counter("svqact_plan_queries_total",
		"Queries that executed with a predicate-ordering plan.")
	s.planReplans = r.Counter("svqact_plan_replans_total",
		"Times the adaptive predicate planner changed its evaluation order.")
	s.planSkipped = r.Counter("svqact_plan_skipped_evaluations_total",
		"Predicate evaluations avoided by short-circuiting under the plan.")
	s.planSavedMS = r.Counter("svqact_plan_saved_cost_ms_total",
		"Estimated simulated-inference milliseconds saved by plan short-circuiting.")
	s.planTierQueries = r.Counter("svqact_plan_tier_queries_total",
		"Queries whose plan priced detector cascade tiers.")
	s.planTierEscalations = r.Counter("svqact_plan_tier_escalations_total",
		"Units escalated past a cascade tier under the plan's tier decisions.")
	s.planBudgetSkipped = r.Counter("svqact_plan_tier_budget_skipped_clips_total",
		"Clips skipped-and-flagged after a query's inference budget ran out.")
	s.planBudgetExhausted = r.Counter("svqact_plan_tier_budget_exhausted_total",
		"Queries whose inference budget ran out before the stream did.")
	s.fleetBatches = r.Counter("svqact_fleet_batches_total",
		"Fleet evaluations served by /query/batch.")
	s.fleetLatency = r.Histogram("svqact_fleet_batch_duration_seconds",
		"End-to-end /query/batch fleet execution latency.", nil)
	s.fleetVideos = map[string]*obs.Counter{}
	for _, outcome := range []string{"ok", "degraded", "interrupted", "skipped", "error"} {
		s.fleetVideos[outcome] = r.Counter("svqact_fleet_videos_total",
			"Videos evaluated by /query/batch fleets, by outcome.",
			obs.L("outcome", outcome))
	}
	s.repoGeneration = r.Gauge("svqact_repo_generation",
		"Highest committed generation across the loaded repository's members.")
	s.repoMembers = r.Gauge("svqact_repo_members",
		"Member indexes in the loaded repository.")
	s.repoReloads = map[string]*obs.Counter{}
	for _, outcome := range []string{"ok", "error"} {
		s.repoReloads[outcome] = r.Counter("svqact_repo_reloads_total",
			"Repository reload attempts, by outcome.",
			obs.L("outcome", outcome))
	}
	s.repoCorruption = r.Counter("svqact_repo_corruption_total",
		"Repository reloads rejected because of a failed integrity check.")
	s.repoRecoveries = r.Counter("svqact_repo_recoveries_total",
		"Successful repository reloads that followed a failed one.")
	r.GaugeFunc("svqact_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.meter.Register(r)
	s.traces.Register(r)
	return s
}

// buildModels assembles the serving detection models: the base simulated
// models, optionally stacked into distilled cascades, optionally wrapped
// with the fault injector. Fault decorators compose per tier, so under
// -cascade each tier carries its own fault realisation and retry budget.
func buildModels(cfg Config) detect.Models {
	var obj detect.ObjectDetector = detect.NewObjectDetector(detect.MaskRCNN, cfg.Seed)
	var act detect.ActionRecognizer = detect.NewActionRecognizer(detect.I3D, cfg.Seed)
	if !cfg.Cascade {
		models := detect.NewModels(obj, act)
		if cfg.Fault != nil {
			models.Objects = detect.InjectObjectFaults(models.Objects, *cfg.Fault)
			models.Actions = detect.InjectActionFaults(models.Actions, *cfg.Fault)
		}
		return models
	}
	var objCheap detect.ObjectDetector = detect.NewDistilledObjectDetector(obj, detect.DistilledRCNN, cfg.Seed)
	var actCheap detect.ActionRecognizer = detect.NewDistilledActionRecognizer(act, detect.DistilledI3D, cfg.Seed)
	if cfg.Fault != nil {
		objCheap = detect.InjectObjectFaults(objCheap, *cfg.Fault)
		obj = detect.InjectObjectFaults(obj, *cfg.Fault)
		actCheap = detect.InjectActionFaults(actCheap, *cfg.Fault)
		act = detect.InjectActionFaults(act, *cfg.Fault)
	}
	return detect.NewModels(
		detect.NewObjectCascade(
			detect.ObjectTier{Detector: objCheap, Band: detect.RecallBand(), PriorEscalate: detect.DistilledRCNN.EscalationPrior(detect.RecallBand())},
			detect.ObjectTier{Detector: obj},
		),
		detect.NewActionCascade(
			detect.ActionTier{Recognizer: actCheap, Band: detect.RecallBand(), PriorEscalate: detect.DistilledI3D.EscalationPrior(detect.RecallBand())},
			detect.ActionTier{Recognizer: act},
		),
	)
}

// Registry returns the server's metrics registry (the one /metrics serves).
func (s *Server) Registry() *obs.Registry { return s.reg }

// observePlan folds one query's plan report into the planner instruments.
func (s *Server) observePlan(rep *plan.Report) {
	if rep == nil {
		return
	}
	s.planQueries.Inc()
	s.planReplans.Add(int64(rep.Replans))
	s.planSkipped.Add(rep.SkippedEvaluations)
	s.planSavedMS.Add(int64(rep.SavedCostMS))
	if rep.Tiered {
		s.planTierQueries.Inc()
		var escalated int64
		for _, n := range rep.Nodes {
			for _, t := range n.Tiers {
				escalated += t.Escalated
			}
		}
		s.planTierEscalations.Add(escalated)
	}
	if b := rep.Budget; b != nil {
		s.planBudgetSkipped.Add(b.SkippedClips)
		if b.Exhausted {
			s.planBudgetExhausted.Inc()
		}
	}
}

// Sources lists the resolvable PROCESS sources.
func (s *Server) Sources() []string { return s.exec.Sources() }

// QueryRequest is the /query request body.
type QueryRequest struct {
	// SQL is a statement of the dialect.
	SQL string `json:"sql"`
	// Algo selects the online algorithm: "svaqd" (default) or "svaq".
	Algo string `json:"algo,omitempty"`
	// K, when positive, overrides the statement's LIMIT for offline
	// (ranked) plans. A cluster coordinator uses it to pull a deeper
	// top-k from a shard during distributed-threshold refinement without
	// rewriting the SQL text.
	K int `json:"k,omitempty"`
	// BudgetMS, when positive, caps this basic online query's simulated
	// inference spend (overriding the server's -budget default). Past the
	// budget the query degrades gracefully — remaining clips are
	// skipped-and-flagged and the plan report carries the budget block —
	// instead of erroring.
	//
	// A knob the statement's shape does not honour (algo on a ranked
	// statement, k on an online one, budget_ms on an extended or ranked
	// one) is rejected with 400, as is any unknown field.
	BudgetMS float64 `json:"budget_ms,omitempty"`
}

// Sequence is one result sequence (see query.Sequence).
type Sequence = query.Sequence

// QueryResponse is the /query response body: the executor's answer between
// the query's identity and its trace.
type QueryResponse struct {
	// QueryID identifies the query across the response, the X-Query-ID
	// header, the trace and the server log line.
	QueryID string `json:"query_id,omitempty"`
	query.Answer
	// Trace is the query's span tree: per-predicate evaluation, ranking
	// traversal and ingestion stages with durations and attributes.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

// BatchRequest is the /query/batch request body: one online statement
// evaluated over every video of the source as a fleet.
type BatchRequest struct {
	// SQL is a statement of the dialect; its PROCESS source names the video
	// repository (a query set fans out per component video).
	SQL string `json:"sql"`
	// Algo selects the online algorithm: "svaqd" (default) or "svaq".
	Algo string `json:"algo,omitempty"`
	// Workers bounds the videos evaluated concurrently; 0 means the
	// server's -workers setting (itself defaulting to GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// BatchVideo is one video's outcome within a /query/batch response.
type BatchVideo struct {
	ID string `json:"id"`
	// Outcome is ok, degraded, interrupted, skipped or error.
	Outcome        string     `json:"outcome"`
	NumClips       int        `json:"num_clips,omitempty"`
	ProcessedClips int        `json:"processed_clips,omitempty"`
	FlaggedClips   int        `json:"flagged_clips,omitempty"`
	Sequences      []Sequence `json:"sequences,omitempty"`
	Error          string     `json:"error,omitempty"`
	ElapsedMS      int64      `json:"elapsed_ms"`
	// Trace is this video's own span tree (trace ID = the batch query ID
	// suffixed with the video ID) — per-entry observability parity with
	// /query, whose responses always carry their trace.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

// BatchResponse is the /query/batch response body: per-video results in
// repository order plus the fleet-level aggregate.
type BatchResponse struct {
	QueryID   string `json:"query_id,omitempty"`
	Source    string `json:"source"`
	Mode      string `json:"mode"`
	Workers   int    `json:"workers"`
	NumVideos int    `json:"num_videos"`

	OK          int `json:"ok"`
	Degraded    int `json:"degraded,omitempty"`
	Interrupted int `json:"interrupted,omitempty"`
	Skipped     int `json:"skipped,omitempty"`
	Failed      int `json:"failed,omitempty"`

	TotalSequences int `json:"total_sequences"`
	FlaggedClips   int `json:"flagged_clips,omitempty"`

	// Plan is the fleet-cumulative report of the shared predicate planner
	// every video's run warm-started from.
	Plan *plan.Report `json:"plan,omitempty"`

	Videos    []BatchVideo `json:"videos"`
	ElapsedMS int64        `json:"elapsed_ms"`
	// Error is set when the fleet as a whole was cut short (the per-video
	// entries still carry whatever completed).
	Error string `json:"error,omitempty"`
	// Trace is the fleet span tree: one span per video plus the fleet root.
	Trace *obs.TraceSnapshot `json:"trace,omitempty"`
}

type errorResponse struct {
	Error   string `json:"error"`
	QueryID string `json:"query_id,omitempty"`
	// Processed/Total report partial progress for interrupted or degraded
	// queries (clips processed before the query stopped).
	Processed int `json:"processed,omitempty"`
	Total     int `json:"total,omitempty"`
}

// Health is the /healthz response body.
type Health struct {
	Status        string  `json:"status"`
	Shard         string  `json:"shard,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Inflight      int64   `json:"inflight"`
	Waiting       int64   `json:"waiting"`
	Capacity      int     `json:"capacity"`
	QueueDepth    int     `json:"queue_depth"`
	Served        uint64  `json:"served"`
	Rejected      uint64  `json:"rejected"`
	Panics        uint64  `json:"panics"`
	// Repo describes the loaded repository when serving one (-repo).
	Repo *RepoHealth `json:"repo,omitempty"`
}

// Health reports the server's live admission counters. It reads the same
// registry-backed instruments /metrics scrapes, so the two views agree.
func (s *Server) Health() Health {
	return Health{
		Status:        "ok",
		Shard:         s.cfg.ShardName,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Inflight:      s.inflight.Value(),
		Waiting:       s.waiting.Value(),
		Capacity:      s.cfg.MaxConcurrent,
		QueueDepth:    s.cfg.QueueDepth,
		Served:        uint64(s.served.Value()),
		Rejected:      uint64(s.rejected.Value()),
		Panics:        uint64(s.panics.Value()),
		Repo:          s.repoHealth(),
	}
}

// Handler returns the HTTP handler. Every route runs under the
// panic-recovery middleware; /query additionally runs under admission
// control, the body size limit, and the per-query deadline.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("/sources", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
			return
		}
		writeJSON(w, http.StatusOK, map[string][]string{"sources": s.Sources()})
	})
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/traces", s.traces.Handler())
	mux.Handle("/debug/traces/", s.traces.Handler())
	mux.HandleFunc("/repo/reload", s.handleRepoReload)
	mux.HandleFunc("/repo/status", s.handleRepoStatus)
	mux.Handle("/query", s.admit(http.HandlerFunc(s.handleQuery)))
	mux.Handle("/query/batch", s.admit(http.HandlerFunc(s.handleBatch)))
	var h http.Handler = mux
	if s.cfg.ShardName != "" {
		h = s.shardHeader(h)
	}
	return s.recover(h)
}

// shardHeader stamps every response with this process's shard identity.
func (s *Server) shardHeader(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-SVQ-Shard", s.cfg.ShardName)
		next.ServeHTTP(w, r)
	})
}

// recover converts handler panics into JSON 500s with a logged stack,
// keeping one poisoned request from crashing the process. Panics raised by
// the net/http machinery itself to abort a connection are re-raised.
func (s *Server) recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Inc()
			s.log.Error("panic serving request",
				"method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			// Best-effort: if the handler already wrote, this is a no-op.
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("internal error: %v", rec)})
		}()
		next.ServeHTTP(w, r)
	})
}

// admit applies the admission controller: at most MaxConcurrent queries
// execute, at most QueueDepth more wait up to QueueWait for a slot, and
// everything beyond that is rejected with 429 + Retry-After.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
			s.waiting.Add(-1)
			s.reject(w, "queue full")
			return
		}
		timer := time.NewTimer(s.cfg.QueueWait)
		defer timer.Stop()
		select {
		case s.sem <- struct{}{}:
			s.waiting.Add(-1)
		case <-timer.C:
			s.waiting.Add(-1)
			s.reject(w, "saturated")
			return
		case <-r.Context().Done():
			s.waiting.Add(-1)
			return // client gone; nothing to write
		}
		defer func() { <-s.sem }()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		// The query is admitted: mint its ID and trace here so queueing
		// time is excluded but everything the handler does is covered. A
		// well-formed inbound X-Query-ID (a coordinator fanning out to
		// this shard) is adopted so the whole scatter shares one ID
		// across coordinator and shard logs, traces and responses.
		qid := r.Header.Get("X-Query-ID")
		if !queryIDRe.MatchString(qid) {
			qid = obs.NewQueryID()
		}
		w.Header().Set("X-Query-ID", qid)
		trace := obs.NewTrace(qid)
		// A coordinator attempt names its own span in X-SVQ-Parent-Span;
		// recording it lets an operator correlate this shard-local trace
		// with the coordinator span that requested it.
		if ps := r.Header.Get("X-SVQ-Parent-Span"); obs.ValidSpanRef(ps) {
			trace.SetRemoteParent(ps)
		}
		r = r.WithContext(obs.WithTrace(r.Context(), trace))
		next.ServeHTTP(w, r)
		s.served.Inc()
	})
}

// queryIDRe is the shape of IDs minted by obs.NewQueryID; only inbound
// X-Query-ID headers matching it are adopted for cross-tier correlation.
var queryIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

func (s *Server) reject(w http.ResponseWriter, why string) {
	s.rejected.Inc()
	retry := s.cfg.QueueWait.Seconds()
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(retry)))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "server " + why + "; retry later"})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	trace := obs.TraceFrom(r.Context())
	var req QueryRequest
	if p, ok := s.decodeStatement(w, r, trace.ID(), &req, &req.SQL); ok {
		s.runQuery(w, r, p, req, trace.ID(), trace)
	}
}

// decodeStatement reads a POSTed JSON body into req and plans the
// statement it carries (at *sql once decoded). When it cannot, it answers
// the client itself — 405, 413, or 400 for bad JSON, an unknown field or a
// statement that does not parse or plan — and reports false.
func (s *Server) decodeStatement(w http.ResponseWriter, r *http.Request, qid string, req any, sql *string) (sqlq.Plan, bool) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only", QueryID: qid})
		return sqlq.Plan{}, false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields() // a misplaced knob is rejected, not dropped
	if err := dec.Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: err.Error(), QueryID: qid})
			return sqlq.Plan{}, false
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON: " + err.Error(), QueryID: qid})
		return sqlq.Plan{}, false
	}
	st, err := sqlq.Parse(*sql)
	if err == nil {
		var p sqlq.Plan
		if p, err = st.Plan(); err == nil {
			return p, true
		}
	}
	s.logQuery(qid, *sql, err, http.StatusBadRequest, 0)
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error(), QueryID: qid})
	return sqlq.Plan{}, false
}

// handleBatch executes one online statement over every video of the source
// as a bounded-concurrency fleet (core.RunAll): per-video results stream into
// the fleet aggregate, per-video outcomes feed the fleet metrics, and the
// response carries the fleet trace with one span per video.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	trace := obs.TraceFrom(r.Context())
	qid := trace.ID()
	var req BatchRequest
	p, ok := s.decodeStatement(w, r, qid, &req, &req.SQL)
	if !ok {
		return
	}
	workers := s.cfg.Workers
	if req.Workers > 0 {
		workers = req.Workers
	}

	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	start := time.Now()
	fr, mode, fleetErr := s.exec.RunAll(ctx, p, req.Algo, core.FleetOptions{Workers: workers, PerVideoTrace: true})
	if fr == nil {
		status, body := errorStatus(fleetErr)
		body.QueryID = qid
		s.logQuery(qid, req.SQL, fleetErr, status, 0)
		writeJSON(w, status, body)
		return
	}
	elapsed := time.Since(start)
	s.fleetLatency.ObserveDuration(elapsed)
	s.fleetBatches.Inc()

	resp := &BatchResponse{
		QueryID: qid, Source: p.Source, Mode: mode,
		Workers: workers, NumVideos: len(fr.Videos),
		OK: fr.OK, Degraded: fr.Degraded, Interrupted: fr.Interrupted,
		Skipped: fr.Skipped, Failed: fr.Failed,
		TotalSequences: fr.TotalSequences, FlaggedClips: fr.FlaggedClips,
		Plan:      fr.Plan,
		ElapsedMS: elapsed.Milliseconds(),
	}
	s.observePlan(fr.Plan)
	for _, vr := range fr.Videos {
		outcome := vr.Outcome()
		if c := s.fleetVideos[outcome]; c != nil {
			c.Inc()
		}
		bv := BatchVideo{ID: vr.ID, Outcome: outcome, ElapsedMS: vr.Elapsed.Milliseconds(), Trace: vr.Trace.Snapshot()}
		if vr.Err != nil {
			bv.Error = vr.Err.Error()
		}
		if res := vr.Result; res != nil {
			bv.NumClips = res.NumClips
			bv.ProcessedClips = res.Processed
			bv.FlaggedClips = res.Flagged.TotalLen()
			bv.Sequences = query.Sequences(res.Sequences, res.Geometry)
		}
		resp.Videos = append(resp.Videos, bv)
	}
	resp.Trace = trace.Snapshot()

	status := http.StatusOK
	if fleetErr != nil {
		// The fleet was cut short (deadline or disconnect): report 504 with
		// the partial per-video results attached.
		resp.Error = fleetErr.Error()
		status = http.StatusGatewayTimeout
	}
	s.logQuery(qid, req.SQL, fleetErr, status, elapsed)
	s.offerTrace(resp.Trace, req.SQL, queryOutcome(fleetErr, status))
	writeJSON(w, status, resp)
}

// runQuery executes a planned statement, observing the latency histogram,
// emitting the per-query log line, and attaching the trace to the response.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, p sqlq.Plan, req QueryRequest, qid string, trace *obs.Trace) {
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	start := time.Now()
	ans, err := s.execute(ctx, p, query.Request{Algo: req.Algo, K: req.K,
		Budget: time.Duration(req.BudgetMS * float64(time.Millisecond))})
	elapsed := time.Since(start)
	s.latency.ObserveDuration(elapsed)
	if err != nil {
		status, body := errorStatus(err)
		body.QueryID = qid
		s.logQuery(qid, req.SQL, err, status, elapsed)
		s.offerTrace(trace.Snapshot(), req.SQL, queryOutcome(err, status))
		writeJSON(w, status, body)
		return
	}
	s.observePlan(ans.Plan)
	if ans.Ranked != nil {
		s.rankSorted.Add(ans.Ranked.Stats.Sorted)
		s.rankRandom.Add(ans.Ranked.Stats.Random)
	}
	resp := &QueryResponse{QueryID: qid, Answer: ans, Trace: trace.Snapshot()}
	s.logQuery(qid, req.SQL, nil, http.StatusOK, elapsed)
	s.offerTrace(resp.Trace, req.SQL, "ok")
	writeJSON(w, http.StatusOK, resp)
}

// execute runs a statement through the executor. Ranked statements on a
// repository-backed server answer from the loaded repository (the merged
// clip space spans every member; the PROCESS source names the repository
// view, not one synthetic stream); a reference on the handle keeps the
// generation's files open across a reload.
func (s *Server) execute(ctx context.Context, p sqlq.Plan, req query.Request) (query.Answer, error) {
	if p.Online || s.cfg.RepoDir == "" {
		return s.exec.Execute(ctx, p, req)
	}
	h := s.acquireRepo()
	if h == nil {
		return query.Answer{}, fmt.Errorf("repository %s is not loaded (last reload failed?)", s.cfg.RepoDir)
	}
	defer h.release()
	var err error
	if req.Index, err = h.repo.Merged(); err != nil {
		return query.Answer{}, err
	}
	ans, err := s.exec.Execute(ctx, p, req)
	ans.Generation = h.repo.MaxGeneration()
	return ans, err
}

// offerTrace hands a finished query's trace to the retained store and emits
// the one-line slow/degraded-query log record when it is kept for cause
// (anything but routine sampling).
func (s *Server) offerTrace(snap *obs.TraceSnapshot, sql, outcome string) {
	if snap == nil {
		return
	}
	reason, retained := s.traces.Offer(snap, obs.TraceMeta{SQL: sql, Outcome: outcome})
	if retained && reason != "sampled" {
		s.log.Warn("trace retained", "trace_id", snap.QueryID, "reason", reason,
			"outcome", outcome, "duration_ms", snap.DurationMS, "sql_digest", obs.SQLDigest(sql))
	}
}

// logQuery emits the structured per-query log line: query ID, statement,
// outcome class and degraded/interrupted status.
func (s *Server) logQuery(qid, stmt string, err error, status int, elapsed time.Duration) {
	var ie *core.InterruptedError
	var de *core.DegradedError
	interrupted := errors.As(err, &ie)
	degraded := errors.As(err, &de)
	outcome := queryOutcome(err, status)
	attrs := []any{
		"query_id", qid, "statement", stmt, "outcome", outcome,
		"degraded", degraded, "interrupted", interrupted,
		"status", status, "elapsed_ms", elapsed.Milliseconds(),
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
		s.log.Warn("query", attrs...)
		return
	}
	s.log.Info("query", attrs...)
}

// queryOutcome classifies a finished query for the log line and the
// retained trace store: "ok", "interrupted", "degraded", "bad_request" or
// "error".
func queryOutcome(err error, status int) string {
	var ie *core.InterruptedError
	var de *core.DegradedError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &ie):
		return "interrupted"
	case errors.As(err, &de):
		return "degraded"
	case status == http.StatusBadRequest:
		return "bad_request"
	}
	return "error"
}

// errorStatus maps execution errors to HTTP statuses: rejected statements
// and request knobs are 400, unknown sources are 404, interrupted queries (deadline or disconnect) are 504 with partial
// progress, degraded queries (failure budget exceeded) are 502, and
// everything else is 500.
func errorStatus(err error) (int, errorResponse) {
	var bad *query.BadRequestError
	if errors.As(err, &bad) {
		return http.StatusBadRequest, errorResponse{Error: err.Error()}
	}
	var nf *query.NotFoundError
	if errors.As(err, &nf) {
		return http.StatusNotFound, errorResponse{Error: err.Error()}
	}
	var ie *core.InterruptedError
	if errors.As(err, &ie) {
		return http.StatusGatewayTimeout, errorResponse{Error: err.Error(), Processed: ie.Processed, Total: ie.Total}
	}
	var de *core.DegradedError
	if errors.As(err, &de) {
		return http.StatusBadGateway, errorResponse{Error: err.Error(), Processed: de.Processed, Total: de.Total}
	}
	return http.StatusInternalServerError, errorResponse{Error: err.Error()}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
