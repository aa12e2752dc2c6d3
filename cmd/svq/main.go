// Command svq runs one statement of the SQL-like dialect through the shared
// statement executor (internal/query), the same one cmd/serve answers
// /query with: online (SVAQ/SVAQD) or ranked offline (RVAQ), depending on
// the statement.
//
// The PROCESS source names a stream of the synthetic benchmark datasets: a
// YouTube query set (q1..q12, the set's videos concatenated) or a movie
// title (e.g. titanic). Ranked statements ingest their source video by
// video, or answer from a saved repository with -repo.
//
// Examples:
//
//	svq -query "SELECT MERGE(clipID) AS Sequence FROM (PROCESS q2 PRODUCE clipID,
//	     obj USING ObjectDetector, act USING ActionRecognizer)
//	     WHERE act='blowing_leaves' AND obj.include('car')"
//
//	svq -query "SELECT MERGE(clipID) AS s, RANK(act, obj)
//	     FROM (PROCESS titanic PRODUCE clipID, obj USING ObjectTracker, act USING ActionRecognizer)
//	     WHERE act='kissing' AND obj.include('surfboard','boat')
//	     ORDER BY RANK(act, obj) LIMIT 5"
//
// Prefixing a query with EXPLAIN additionally prints the predicate plan the
// execution ran with — the adaptive cheapest-rejection-first order, the
// declared order, and the per-predicate cost/selectivity statistics:
//
//	svq -query "EXPLAIN SELECT MERGE(clipID) AS Sequence FROM (PROCESS q2 ...) WHERE ..."
//
// The fsck subcommand verifies a saved repository offline — commit records,
// manifest checksums and invariants, table magic/checksums/sort order — and
// exits non-zero if any member is corrupt:
//
//	svq fsck ./repo
//
// The split subcommand partitions a repository by video into N shard
// repositories for sharded serving (cmd/serve -shard-name per shard,
// cmd/coordinator in front). Placement is deterministic by video name, so
// re-running split after re-ingest keeps every video on the same shard:
//
//	svq split -n 2 -out ./shards ./repo
//
// The trace subcommand explains retained queries from a running serve or
// coordinator process: with no argument it lists the retained trace index
// (GET /debug/traces), with a trace id it renders the full span tree as an
// ASCII waterfall (GET /debug/traces/{id}):
//
//	svq trace -server http://127.0.0.1:8090
//	svq trace -server http://127.0.0.1:8090 9a4ee1c2bb03d70f
//
// The rollout subcommand drives a coordinator's rolling generation swap
// (POST /rollout): shard replica sets are walked one replica at a time
// through drain → reload → verify, any failed step halts with the old
// generation still serving, and the command polls progress until the
// rollout completes or fails (exit 0 / 1):
//
//	svq rollout -server http://127.0.0.1:8090 -canary "SELECT ... LIMIT 1"
//	svq rollout -server http://127.0.0.1:8090 -status
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"svqact/internal/cluster"
	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/plan"
	"svqact/internal/query"
	"svqact/internal/rank"
	"svqact/internal/sqlq"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fsck" {
		os.Exit(runFsck(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "split" {
		os.Exit(runSplit(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		os.Exit(runTrace(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "rollout" {
		os.Exit(runRollout(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.query, "query", "", "SQL-like query (reads stdin when empty)")
	flag.Float64Var(&o.scale, "scale", 0.25, "dataset scale relative to the paper")
	flag.Int64Var(&o.seed, "seed", 42, "dataset and model seed")
	flag.StringVar(&o.algo, "algo", "", "online algorithm: svaq or svaqd (default svaqd)")
	flag.Float64Var(&o.p0, "p0", 1e-4, "initial background probability")
	flag.StringVar(&o.repo, "repo", "", "answer ranked queries from a saved repository (built with cmd/ingest) instead of re-ingesting")
	flag.BoolVar(&o.cascade, "cascade", false, "run the detectors as tiered cascades (recall-complete distilled cheap tier in front of each model)")
	flag.DurationVar(&o.budget, "budget", 0, "per-query inference budget (simulated model time) for online statements; 0 means unlimited. Queries degrade gracefully past it")
	flag.Parse()
	if o.query == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "svq:", err)
			os.Exit(1)
		}
		o.query = string(data)
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "svq:", err)
		os.Exit(1)
	}
}

// options are the statement-running flags.
type options struct {
	query   string
	scale   float64
	seed    int64
	algo    string
	p0      float64
	repo    string
	cascade bool
	budget  time.Duration
}

// run executes one statement and prints its answer.
func run(w io.Writer, o options) error {
	var obj detect.ObjectDetector = detect.NewObjectDetector(detect.MaskRCNN, o.seed)
	var act detect.ActionRecognizer = detect.NewActionRecognizer(detect.I3D, o.seed)
	if o.cascade {
		obj = detect.NewDistilledObjectCascade(obj, detect.DistilledRCNN, o.seed)
		act = detect.NewDistilledActionCascade(act, detect.DistilledI3D, o.seed)
	}
	models := detect.NewModels(obj, act)
	var meter detect.Meter
	start := time.Now()
	p, ans, err := answer(o, models, &meter)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	if p.Online {
		printOnline(w, p, ans)
		fmt.Fprintf(w, "engine time %v; inference: %d frames, %d shots (simulated %v)\n",
			elapsed, meter.ObjectFrames(), meter.ActionShots(), meter.Cost(models).Round(time.Second))
	} else {
		printRanked(w, p, ans)
		fmt.Fprintf(w, "query time %v; %d random accesses, %d sorted accesses, %d clips scored\n",
			elapsed, ans.Ranked.Stats.Random, ans.Ranked.Stats.Sorted, ans.Ranked.ClipsScored)
	}
	if p.Explain {
		fprintExplain(w, ans.Plan)
	}
	return nil
}

// answer parses the statement and runs it through the executor, ranked
// statements against the -repo repository when one is given.
func answer(o options, models detect.Models, meter *detect.Meter) (sqlq.Plan, query.Answer, error) {
	st, err := sqlq.Parse(o.query)
	if err != nil {
		return sqlq.Plan{}, query.Answer{}, err
	}
	p, err := st.Plan()
	if err != nil {
		return sqlq.Plan{}, query.Answer{}, err
	}
	cfg := core.DefaultConfig()
	cfg.P0Object, cfg.P0Action = o.p0, o.p0
	cfg.Meter = meter
	exec := query.New(query.Config{Models: models, Engine: cfg, Scale: o.scale, Seed: o.seed})
	req := query.Request{Algo: o.algo, Budget: o.budget}
	if !p.Online && o.repo != "" {
		repo, err := rank.OpenRepository(o.repo)
		if err != nil {
			return p, query.Answer{}, err
		}
		defer repo.Close()
		if req.Index, err = repo.Merged(); err != nil {
			return p, query.Answer{}, err
		}
	}
	ans, err := exec.Execute(context.Background(), p, req)
	return p, ans, err
}

func printOnline(w io.Writer, p sqlq.Plan, ans query.Answer) {
	if p.Extended {
		fmt.Fprintf(w, "%s (extended) over %s: query %s, %d clips\n", ans.Mode, p.Source, p.CNF, ans.NumClips)
	} else {
		fmt.Fprintf(w, "%s over %s: query %s, %d clips\n", ans.Mode, p.Source, p.Query, ans.NumClips)
	}
	fmt.Fprintf(w, "result sequences (%d):\n", len(ans.Sequences))
	for _, s := range ans.Sequences {
		fmt.Fprintf(w, "  clips %4d..%-4d  frames %6d..%-6d\n", s.StartClip, s.EndClip, s.StartFrame, s.EndFrame)
	}
	for _, ps := range ans.Online.Predicates {
		fmt.Fprintf(w, "predicate %-24s background=%.2e k_crit=%d positive clips=%d\n",
			ps.Name, ps.Background, ps.Critical, ps.Clips.TotalLen())
	}
}

func printRanked(w io.Writer, p sqlq.Plan, ans query.Answer) {
	var q fmt.Stringer = p.Query
	if p.Extended {
		q = p.CNF
	}
	fmt.Fprintf(w, "%s top-%d for %s over %s (%d candidate sequences):\n", ans.Mode, ans.K, q, p.Source, ans.Candidates)
	for i, s := range ans.Sequences {
		fmt.Fprintf(w, "  #%-2d score %10.2f  %s clips %d..%d", i+1, s.Score, s.Video, s.StartClip, s.EndClip)
		if s.EndFrame > 0 {
			fmt.Fprintf(w, "  frames %d..%d", s.StartFrame, s.EndFrame)
		}
		fmt.Fprintln(w)
	}
}

// printExplain renders a predicate-ordering plan report as the EXPLAIN
// block. Ordering is a cost decision only; EXPLAIN output never implies a
// different result.
func printExplain(rep *plan.Report) { fprintExplain(os.Stdout, rep) }

// fprintExplain is printExplain against an arbitrary writer (testable). The
// tier columns and the budget line appear only on tiered plans; a
// single-tier plan renders byte-identically to the pre-cascade output.
func fprintExplain(w io.Writer, rep *plan.Report) {
	if rep == nil {
		fmt.Fprintln(w, "EXPLAIN: no predicate plan available for this execution path")
		return
	}
	mode := "adaptive (cheapest expected cost to reject first)"
	if !rep.Adaptive {
		mode = "pinned (declared order)"
	}
	fmt.Fprintf(w, "EXPLAIN predicate plan: %s\n", mode)
	fmt.Fprintf(w, "  order:    %s\n", strings.Join(rep.Order, " -> "))
	fmt.Fprintf(w, "  declared: %s\n", strings.Join(rep.Declared, " -> "))
	fmt.Fprintf(w, "  replans %d, observed clips %d, skipped evaluations %d, saved cost %.0f ms\n",
		rep.Replans, rep.ObservedClips, rep.SkippedEvaluations, rep.SavedCostMS)
	if b := rep.Budget; b != nil {
		status := "within budget"
		if b.Exhausted {
			status = "exhausted"
		}
		fmt.Fprintf(w, "  budget %.0f ms: spent %.0f ms, skipped %d clips (%s)\n",
			b.LimitMS, b.SpentMS, b.SkippedClips, status)
	}
	nodes := append([]plan.NodeReport(nil), rep.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Position < nodes[j].Position })
	if !rep.Tiered {
		fmt.Fprintf(w, "  %-4s %-24s %12s %12s %8s %14s %8s %8s\n",
			"pos", "predicate", "est cost", "obs cost", "reject", "cost/reject", "evals", "skips")
		for _, n := range nodes {
			fmt.Fprintf(w, "  %-4d %-24s %10.2fms %10.2fms %8.3f %12.2fms %8d %8d\n",
				n.Position, n.Name, n.EstimatedCostMS, n.ObservedCostMS,
				n.RejectRate, n.CostToRejectMS, n.ObservedEvaluations, n.SkippedEvaluations)
		}
		return
	}
	fmt.Fprintf(w, "  %-4s %-24s %12s %12s %8s %14s %8s %8s %-8s %8s\n",
		"pos", "predicate", "est cost", "obs cost", "reject", "cost/reject", "evals", "skips", "tier", "esc")
	for _, n := range nodes {
		tier, esc := "-", "-"
		if n.Tier != "" {
			tier = n.Tier
			esc = fmt.Sprintf("%.3f", n.EscalationRate)
		}
		fmt.Fprintf(w, "  %-4d %-24s %10.2fms %10.2fms %8.3f %12.2fms %8d %8d %-8s %8s\n",
			n.Position, n.Name, n.EstimatedCostMS, n.ObservedCostMS,
			n.RejectRate, n.CostToRejectMS, n.ObservedEvaluations, n.SkippedEvaluations, tier, esc)
		for _, t := range n.Tiers {
			fmt.Fprintf(w, "       tier %-18s unit %8.2fms units %8d escalated %8d rate %.3f spent %10.2fms\n",
				t.Name, t.UnitCostMS, t.Units, t.Escalated, t.EscalationRate, t.SpentMS)
		}
	}
}

// runFsck verifies one or more repository (or single-index) directories and
// reports every violated invariant. Exit code 0 means every committed
// generation is intact.
func runFsck(args []string) int {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	quiet := fs.Bool("q", false, "only report problems")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: svq fsck [-q] dir...")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	dirs := fs.Args()
	if len(dirs) == 0 {
		fs.Usage()
		return 2
	}
	exit := 0
	for _, dir := range dirs {
		reports, err := fsckDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svq fsck: %v\n", err)
			exit = 1
		}
		for _, rep := range reports {
			if !*quiet {
				fmt.Printf("ok %-32s gen %d  %6d clips  %2d object types  %d action types\n",
					rep.Dir, rep.Generation, rep.NumClips, rep.Objects, rep.Actions)
			}
			for _, w := range rep.Warnings {
				fmt.Printf("warn %s: %s\n", rep.Dir, w)
			}
		}
	}
	return exit
}

// runSplit partitions a repository into N shard repositories under -out,
// named shard0..shardN-1, using the cluster's stable video-name hash.
func runSplit(args []string) int {
	fs := flag.NewFlagSet("split", flag.ExitOnError)
	n := fs.Int("n", 2, "number of shards")
	out := fs.String("out", "", "output directory (shard repositories are created as <out>/shardK)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: svq split -n N -out dir repoDir")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if *n < 1 || *out == "" || fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	src := fs.Arg(0)
	dirs := make([]string, *n)
	for i := range dirs {
		dirs[i] = filepath.Join(*out, fmt.Sprintf("shard%d", i))
	}
	if err := cluster.SplitRepository(src, dirs); err != nil {
		fmt.Fprintln(os.Stderr, "svq split:", err)
		return 1
	}
	for i, dir := range dirs {
		reports, err := rank.FsckRepository(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svq split: verifying shard %d: %v\n", i, err)
			return 1
		}
		fmt.Printf("shard%d %s: %d members\n", i, dir, len(reports))
	}
	return 0
}

// fsckDir verifies dir as a single saved index when it holds a commit record
// itself, and as a repository of members otherwise.
func fsckDir(dir string) ([]*rank.FsckReport, error) {
	for _, marker := range []string{"CURRENT", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(dir, marker)); err == nil {
			rep, err := rank.Fsck(dir)
			if err != nil {
				return nil, err
			}
			return []*rank.FsckReport{rep}, nil
		}
	}
	return rank.FsckRepository(dir)
}
