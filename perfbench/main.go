// Command perfbench is the repository's benchmark. It builds one workload's
// system in process (datasets, repositories, repo-backed servers, a
// coordinator), drives it over loopback HTTP as a closed loop with two
// connections, checks every answer against the same build's library calls,
// and prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload online --seed 1 --seconds 8 --trace 0
//	bash perfbench/run.sh compare dirA dirB
//
// See perfbench/README.md for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many cold setups one untraced run times: setup_s is
// their median. Each extra setup runs in a fresh child process, because the
// critical-value grid a setup fills is process-wide. A cold setup takes
// 10-15 s on two CPUs, so more repeats would not fit the run-time budget
// of 22 runs per workload.
const setupRepeats = 2

// opSequenceLen bounds the pre-generated op sequence; the loop wraps
// around it if a run outlasts it.
const opSequenceLen = 200000

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	setupOnly bool
	out       string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	begin := time.Now()
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: online, ranked or cluster")
	flag.Int64Var(&o.seed, "seed", 1, "op-sequence seed")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds the closed loop measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "time one cold setup and exit (used by the parent run)")
	flag.StringVar(&o.out, "out", "", "result file (default .bench_build/results/<workload>-trace<t>-seed<n>.json)")
	flag.Parse()
	if err := run(o, begin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupResult is one cold setup: total seconds and its phases.
type setupResult struct {
	Seconds float64            `json:"setup_s"`
	Phases  map[string]float64 `json:"phases"`
}

func run(o options, begin time.Time) error {
	wl, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", wl.Name, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	if o.setupOnly {
		sys, runner, setup, err := coldSetup(wl, work, begin, o.seed)
		if err != nil {
			return err
		}
		runner.closeIdle()
		sys.close()
		line, _ := json.Marshal(setup)
		fmt.Println(string(line))
		return nil
	}

	speedBefore := hostSpeedMS()
	var setups []setupResult
	if o.trace == 0 {
		for i := 1; i < setupRepeats; i++ {
			s, err := childSetup(o)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
	}
	sys, runner, setup, err := coldSetup(wl, work, time.Now(), o.seed)
	if err != nil {
		return err
	}
	defer sys.close()
	defer runner.closeIdle()
	setups = append(setups, setup)

	cfg := configKey(o, wl)
	var res *result
	if o.trace == 0 {
		res, err = measure(o, sys, runner, setups)
	} else {
		res, err = traced(o, sys, runner, setup)
	}
	if err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf("host speed: a fixed CPU loop took %.1f ms before setup and %.1f ms after the loop", speedBefore, hostSpeedMS()))
	return report(o, cfg, res)
}

// hostSpeedMS times a fixed CPU-bound loop. Printed beside the metrics, it
// shows how fast the (possibly shared) host ran during the run, so spread
// between runs can be told apart from a change in the program.
func hostSpeedMS() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	ms := msSince(start)
	if x == 0 { // never true; keeps the loop from being optimised away
		ms = -ms
	}
	return ms
}

// coldSetup builds the system and sends every op template once. In a fresh
// process that first pass fills the critical-value grids, so it is part of
// the setup a user of a new process pays.
func coldSetup(wl *workload, work string, begin time.Time, seed int64) (*system, *runner, setupResult, error) {
	sys, err := buildSystem(wl, work)
	if err != nil {
		return nil, nil, setupResult{}, err
	}
	r := newRunner(sys, wl.opSequence(seed, opSequenceLen))
	warm, err := r.warm()
	if err != nil {
		r.closeIdle()
		sys.close()
		return nil, nil, setupResult{}, err
	}
	sys.phases["warm"] = warm
	return sys, r, setupResult{Seconds: time.Since(begin).Seconds(), Phases: sys.phases}, nil
}

// childSetup times one cold setup in a fresh child process.
func childSetup(o options) (setupResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	// The child must not outlive a parent that is killed mid-setup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return setupResult{}, fmt.Errorf("setup child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var s setupResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		return setupResult{}, fmt.Errorf("setup child output: %w", err)
	}
	return s, nil
}

// metricSpec names a reported metric and its unit.
type metricSpec struct{ Name, Unit string }

// endToEndMetrics and perLayerMetrics are what an untraced and a traced run
// report, in order; BENCHMARK.json lists the same.
var endToEndMetrics = []metricSpec{
	{"throughput_rps", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"}, {"success_rate", "ratio"},
	{"cpu_ms_per_op", "ms"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
}

var perLayerMetrics = []metricSpec{
	{"sqlq.parse_us", "us"},
	{"server.overhead_ms", "ms"}, {"server.response_kb", "KB"}, {"server.encode_us", "us"}, {"server.rejected", "count"},
	{"server.latency_p99_ms", "ms"}, {"server.latency_max_ms", "ms"}, {"server.latency_samples", "count"},
	{"core.run_ms", "ms"}, {"core.run_cnf_ms", "ms"}, {"core.fleet_ms", "ms"}, {"core.clips_per_op", "count"},
	{"plan.skipped_evals_per_op", "count"}, {"plan.replans_per_op", "count"}, {"plan.lock_wait_us_per_op", "us"},
	{"detect.units_per_op", "count"}, {"detect.inference_ms_per_op", "ms"}, {"detect.score_ns_per_unit", "ns"},
	{"scanstat.cold_fill_s", "s"}, {"scanstat.lock_wait_us_per_op", "us"},
	{"synth.generate_s", "s"},
	{"rank.topk_ms", "ms"}, {"rank.sorted_per_op", "count"}, {"rank.random_per_op", "count"},
	{"rank.candidates_per_op", "count"}, {"rank.merge_ms", "ms"}, {"rank.ingest_s", "s"},
	{"store.save_ms", "ms"}, {"store.open_ms", "ms"}, {"store.write_amplification", "ratio"},
	{"cluster.topk_ms", "ms"}, {"cluster.rounds_per_op", "count"}, {"cluster.attempts_per_op", "count"},
	{"cluster.shard_attempt_ms", "ms"}, {"cluster.start_s", "s"},
	{"obs.spans_per_op", "count"}, {"obs.trace_kb_per_op", "KB"},
	{"trace.overhead_ms", "ms"},
	{"self.server_ms", "ms"}, {"self.core_ms", "ms"}, {"self.detect_ms", "ms"}, {"self.plan_ms", "ms"},
	{"self.rank_ms", "ms"}, {"self.cluster_ms", "ms"},
	{"cluster.or_group_mismatches", "count"}, {"trace.accounting_error", "ratio"},
}

// metric is one reported metric with its within-run distribution.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	summary
}

type result struct {
	metrics   []metric
	attempted int
	failed    int
	correct   bool
	notes     []string
}

func (r *result) add(name, unit string, value float64, dist []float64) {
	m := metric{Name: name, Unit: unit, Value: value}
	if len(dist) > 0 {
		m.summary = summarize(dist)
	} else {
		m.summary = summary{Median: value, Q1: value, Q3: value, N: 1}
	}
	m.Value, m.Median, m.Q1, m.Q3 = finite(m.Value), finite(m.Median), finite(m.Q1), finite(m.Q3)
	r.metrics = append(r.metrics, m)
}

// failedLatencyMS stands in for the +Inf latency of failed ops, which JSON
// cannot carry.
const failedLatencyMS = 1e9

func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return failedLatencyMS
	}
	return x
}

// measure runs the untraced closed loop and derives the end-to-end metrics.
func measure(o options, sys *system, r *runner, setups []setupResult) (*result, error) {
	lr := r.run(time.Duration(o.seconds) * time.Second)
	rssMB := peakRSSMB()
	res := &result{attempted: len(lr.samples)}
	if err := verify(sys, lr, res); err != nil {
		return nil, err
	}
	ok := res.attempted - res.failed

	// Per-window figures over the loop's windows; ops still in flight at
	// the deadline complete after the last one.
	n := len(lr.windows)
	lats := make([][]float64, n)
	good := make([]float64, n)
	for _, s := range lr.samples {
		i := int(s.endS / windowLen.Seconds())
		if i >= n {
			continue
		}
		if s.ok {
			good[i]++
			lats[i] = append(lats[i], s.latMS)
		} else {
			lats[i] = append(lats[i], math.Inf(1))
		}
	}
	steal := make([]float64, n)
	for i, w := range lr.windows {
		steal[i] = w.stealS
	}
	kept := cleanWindows(steal)
	var tput, p50, p90, cpu, allTput []float64
	for i := range lats {
		allTput = append(allTput, good[i]/windowLen.Seconds())
		if !kept[i] {
			continue
		}
		tput = append(tput, good[i]/windowLen.Seconds())
		sort.Float64s(lats[i])
		if len(lats[i]) == 0 {
			lats[i] = []float64{math.Inf(1)} // nothing completed: a stall
		}
		p50 = append(p50, quantile(lats[i], 0.50))
		p90 = append(p90, quantile(lats[i], 0.90))
		if w := lr.windows[i]; w.ops > 0 {
			cpu = append(cpu, w.cpuS*1000/float64(w.ops))
		}
	}
	res.add("throughput_rps", "1/s", median(tput), tput)
	res.add("latency_p50_ms", "ms", median(p50), p50)
	res.add("latency_p90_ms", "ms", median(p90), p90)
	res.add("success_rate", "ratio", float64(ok)/float64(res.attempted), nil)
	res.add("cpu_ms_per_op", "ms", median(cpu), cpu)
	res.add("peak_rss_mb", "MB", rssMB, nil)

	sorted := lr.latencies()
	sort.Float64s(sorted)
	res.notes = append(res.notes, fmt.Sprintf("over all %d ops: p50 %.3f ms, p90 %.3f ms", len(sorted), quantile(sorted, 0.50), quantile(sorted, 0.90)))
	res.notes = append(res.notes, stealNote(steal, kept, allTput))
	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.Seconds)
	}
	res.add("setup_s", "s", median(setupS), setupS)

	if p, ok := tailPercentile(len(sorted)); ok {
		res.notes = append(res.notes, fmt.Sprintf("latency %s = %.3f ms over %d ops (highest percentile with >= 10 ops beyond it)",
			p.Name, quantile(sorted, p.P/100), len(sorted)))
	}
	res.notes = append(res.notes, fmt.Sprintf("error_rate = %d/%d = %.5f (failed, refused or wrong)",
		res.failed, res.attempted, float64(res.failed)/float64(max(res.attempted, 1))))
	res.notes = append(res.notes, setupNotes(setups)...)
	if _, note, err := crossShardNote(r, sys); err != nil {
		return nil, err
	} else if note != "" {
		res.notes = append(res.notes, note)
	}
	return res, nil
}

// stealNote says which windows the end-to-end metrics are medians of, and
// what the windows left out would have given.
func stealNote(steal []float64, kept []bool, allTput []float64) string {
	k, total := 0, 0.0
	for i, s := range steal {
		total += s
		if kept[i] {
			k++
		}
	}
	share := total / (float64(len(steal)) * windowLen.Seconds() * float64(runtime.NumCPU()))
	return fmt.Sprintf("throughput, latency and CPU above are medians of the %d of %d %v windows with hypervisor steal <= %.0f ms (the run's median); steal took %.1f%% of the CPUs over the loop; throughput over all windows: median %.1f/s",
		k, len(steal), windowLen, 1000*median(steal), 100*share, median(allTput))
}

// setupNotes splits setup_s into its phases (medians across the timed
// setups) and checks that the phases account for it within a tenth.
func setupNotes(setups []setupResult) []string {
	byPhase := map[string][]float64{}
	var total []float64
	for _, s := range setups {
		total = append(total, s.Seconds)
		for p, v := range s.Phases {
			byPhase[p] = append(byPhase[p], v)
		}
	}
	var parts []string
	sum := 0.0
	for _, p := range sortedKeys(byPhase) {
		m := median(byPhase[p])
		sum += m
		parts = append(parts, fmt.Sprintf("%s %.3fs", p, m))
	}
	st := median(total)
	share := sum / st
	verdict := "within a tenth"
	if share < 0.9 || share > 1.1 {
		verdict = "NOT within a tenth"
	}
	return []string{fmt.Sprintf("setup phases (median of %d): %s; sum %.3fs = %.1f%% of setup_s %.3fs, %s",
		len(setups), strings.Join(parts, ", "), sum, 100*share, st, verdict)}
}

// verify checks every answer of the loop and folds failures into res.
func verify(sys *system, lr *loopResult, res *result) error {
	ref, err := newReferences(sys)
	if err != nil {
		return err
	}
	defer ref.close()
	errs := lr.errs
	wrong, err := check(ref, lr.samples, &errs)
	if err != nil {
		return err
	}
	for _, s := range lr.samples {
		if !s.ok {
			res.failed++
		}
	}
	res.correct = wrong == 0 && res.failed == 0
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
	return nil
}

// configKey is what two results must share to be compared; env is
// recorded beside it but may differ.
func configKey(o options, wl *workload) map[string]any {
	return map[string]any{
		"key": map[string]any{
			"workload": wl.Name, "trace": o.trace, "seconds": o.seconds,
			"connections": connections, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "scale": wl.Scale, "data_seed": dataSeed, "mix": wl.mixString(),
			"setup_repeats": setupRepeats,
		},
		"env": map[string]any{"seed": o.seed, "git_rev": gitRev(), "goos": runtime.GOOS, "goarch": runtime.GOARCH},
	}
}

func gitRev() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// report prints the human-readable table, the config line and the result
// line, and writes the result file.
func report(o options, cfg map[string]any, res *result) error {
	want := endToEndMetrics
	if o.trace == 1 {
		want = perLayerMetrics
	}
	if len(want) != len(res.metrics) {
		return fmt.Errorf("reported %d metrics, want %d", len(res.metrics), len(want))
	}
	for i, m := range res.metrics {
		if m.Name != want[i].Name || m.Unit != want[i].Unit {
			return fmt.Errorf("metric %d is %s (%s), want %s (%s)", i, m.Name, m.Unit, want[i].Name, want[i].Unit)
		}
	}
	fmt.Printf("%-28s %-6s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "n")
	metrics := map[string]any{}
	for _, m := range res.metrics {
		fmt.Printf("%-28s %-6s %14.6g %14.6g %14.6g %8d\n", m.Name, m.Unit, m.Median, m.Q1, m.Q3, m.N)
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	full := map[string]any{"config": cfg, "metrics": res.metrics, "attempted": res.attempted,
		"failed": res.failed, "correct": res.correct, "notes": res.notes}
	path := o.out
	if path == "" {
		path = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-trace%d-seed%d.json", o.workload, o.trace, o.seed))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("{\"config\": %s}\n", line)
	last, err := json.Marshal(map[string]any{"correct": res.correct, "attempted": res.attempted,
		"failed": res.failed, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// processCPU returns the process's user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB returns the process's peak resident set in MB (ru_maxrss is
// in kB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
