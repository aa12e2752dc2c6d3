package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"svqact/internal/cluster"
	"svqact/internal/detect"
	"svqact/internal/rank"
	"svqact/internal/server"
	"svqact/internal/sqlq"
)

// layers are the program's modules a round trip's time is attributed to.
var layers = []string{"server", "core", "detect", "plan", "rank", "cluster"}

// layerOf maps a span name to its layer; "" inherits the parent's.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "engine."), strings.HasPrefix(name, "fleet."):
		return "core"
	case strings.HasPrefix(name, "predicate:"):
		return "detect"
	case strings.HasPrefix(name, "plan."):
		return "plan"
	case strings.HasPrefix(name, "rank."):
		return "rank"
	case strings.HasPrefix(name, "cluster."):
		return "cluster"
	}
	return ""
}

// opTrace is what the traced loop records about one op, outside the op's
// timed round trip.
type opTrace struct {
	kind     string
	rtMS     float64
	traceMS  float64            // the responding process's trace duration
	self     map[string]float64 // layer -> self ms
	byName   map[string][]float64
	counts   map[string]float64
	spans    int
	traceKB  float64
	respKB   float64
	encodeUS float64
	parseUS  float64
	err      string
}

type traceJSON struct {
	DurationMS float64 `json:"duration_ms"`
	Spans      []struct {
		Name       string         `json:"name"`
		ID         string         `json:"id"`
		Parent     string         `json:"parent"`
		StartMS    float64        `json:"start_ms"`
		DurationMS float64        `json:"duration_ms"`
		Attrs      map[string]any `json:"attrs"`
	} `json:"spans"`
}

// traceOp builds the op's span tree — the benchmark's round-trip span, the
// responding process's trace, and (for batches) each video's own trace
// under its fleet span — and attributes the round trip to layers. It also
// times the client-visible layer calls the response implies: parsing the
// statement and JSON-encoding the decoded response.
func traceOp(t *template, rtMS float64, body []byte) opTrace {
	ot := opTrace{kind: t.Kind, rtMS: rtMS, byName: map[string][]float64{}, counts: map[string]float64{},
		respKB: float64(len(body)) / 1024}
	var doc struct {
		Trace  *traceJSON `json:"trace"`
		Videos []struct {
			ID    string     `json:"id"`
			Trace *traceJSON `json:"trace"`
		} `json:"videos"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || doc.Trace == nil {
		ot.err = "response carries no trace"
		return ot
	}
	ot.traceMS = doc.Trace.DurationMS
	root := &span{ID: "http", Name: "http", Layer: "server", Dur: rtMS}
	top := &span{ID: "trace", Parent: "http", Name: "trace", Layer: "server",
		Start: math.Max(0, (rtMS-doc.Trace.DurationMS)/2), Dur: doc.Trace.DurationMS}
	spans := []*span{root, top}
	spans = appendTrace(spans, doc.Trace, "t/", top)
	for i, v := range doc.Videos {
		if v.Trace == nil {
			continue
		}
		under := top
		for _, s := range spans {
			if s.Name == "fleet.video:"+v.ID {
				under = s
			}
		}
		spans = appendTrace(spans, v.Trace, fmt.Sprintf("v%d/", i), under)
	}
	layOutPredicates(spans)
	self := selfTimes(spans)
	ot.self = map[string]float64{}
	ownSpans := 2 + len(doc.Trace.Spans)
	for i, s := range spans {
		ot.self[s.Layer] += self[i]
		if i < ownSpans {
			// Per-video runs of a batch are covered by its fleet span.
			ot.byName[s.Name] = append(ot.byName[s.Name], s.Dur)
		}
		num := func(k string) float64 { f, _ := s.Attrs[k].(float64); return f }
		switch {
		case s.Name == "engine.run" || s.Name == "engine.run_cnf":
			ot.counts["clips"] += num("clips_processed")
		case s.Name == "rank.topk":
			ot.counts["sorted"] += num("sorted_accesses")
			ot.counts["random"] += num("random_accesses")
			ot.counts["candidates"] += num("candidates")
		case s.Name == "cluster.topk":
			ot.counts["rounds"] += num("rounds")
		case s.Name == "cluster.attempt":
			ot.counts["attempts"]++
		}
	}
	ot.spans = len(spans) - 2
	traceBytes, _ := json.Marshal(doc.Trace) // re-encoding decoded JSON cannot fail
	n := len(traceBytes)
	for _, v := range doc.Videos {
		b, _ := json.Marshal(v.Trace)
		n += len(b)
	}
	ot.traceKB = float64(n) / 1024

	const reps = 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		if st, err := sqlq.Parse(t.SQL); err == nil {
			_, _ = st.Plan() // the server already accepted this statement
		}
	}
	ot.parseUS = float64(time.Since(start).Nanoseconds()) / 1e3 / reps
	ot.encodeUS = encodeMicros(t, body)
	return ot
}

// appendTrace adds one process trace's spans under the span `under`, with
// ids prefixed so traces grafted side by side stay distinct.
func appendTrace(spans []*span, tr *traceJSON, prefix string, under *span) []*span {
	layer := map[string]string{}
	for _, s := range tr.Spans {
		sp := &span{ID: prefix + s.ID, Parent: under.ID, Name: s.Name, Start: under.Start + s.StartMS,
			Dur: s.DurationMS, Attrs: s.Attrs, Layer: layerOf(s.Name)}
		parentLayer := under.Layer
		if s.Parent != "" {
			sp.Parent = prefix + s.Parent
			if l, ok := layer[s.Parent]; ok {
				parentLayer = l
			}
		}
		if sp.Layer == "" {
			sp.Layer = parentLayer
		}
		layer[s.ID] = sp.Layer
		spans = append(spans, sp)
	}
	return spans
}

// layOutPredicates places a run's predicate spans back to back from their
// parent's start. The engine reports each predicate's accumulated
// evaluation time as one span anchored at the run's start, so as recorded
// they overlap although the evaluations ran one after another.
func layOutPredicates(spans []*span) {
	byID := map[string]*span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	cursor := map[string]float64{}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "predicate:") {
			continue
		}
		p := byID[s.Parent]
		if p == nil {
			continue
		}
		if _, ok := cursor[p.ID]; !ok {
			cursor[p.ID] = p.Start
		}
		s.Start = cursor[p.ID]
		cursor[p.ID] += s.Dur
	}
}

// encodeMicros decodes the response into the program's own response type
// and times encoding it back to JSON.
func encodeMicros(t *template, body []byte) float64 {
	var v any
	switch {
	case t.Kind == kindBatch:
		v = &server.BatchResponse{}
	case bytes.Contains(body, []byte(`"shard_details"`)):
		v = &cluster.QueryAnswer{}
	default:
		v = &server.QueryResponse{}
	}
	if err := json.Unmarshal(body, v); err != nil {
		return 0
	}
	start := time.Now()
	_ = json.NewEncoder(io.Discard).Encode(v) // a decoded response re-encodes
	return float64(time.Since(start).Nanoseconds()) / 1e3
}

// traced runs the per-layer measurement: an untraced half and a traced
// half of the closed loop, then direct calls into the layers the loop
// cannot time from outside.
func traced(o options, sys *system, r *runner, setup setupResult) (*result, error) {
	warm2, err := r.warm()
	if err != nil {
		return nil, err
	}
	half := time.Duration(o.seconds) * time.Second / 2
	mA, err := scrape(sys)
	if err != nil {
		return nil, err
	}
	plain := r.run(half)
	m0, err := scrape(sys)
	if err != nil {
		return nil, err
	}
	runtime.SetBlockProfileRate(1)
	r.traced = true
	tr := r.run(half)
	r.traced = false
	runtime.SetBlockProfileRate(0)
	m1, err := scrape(sys)
	if err != nil {
		return nil, err
	}
	waits, err := lockWaits()
	if err != nil {
		return nil, err
	}
	probes, err := directProbes(sys)
	if err != nil {
		return nil, err
	}

	res := &result{}
	all := &loopResult{samples: append(append([]sample(nil), plain.samples...), tr.samples...),
		errs: append(plain.errs, tr.errs...)}
	res.attempted = len(all.samples)
	if err := verify(sys, all, res); err != nil {
		return nil, err
	}

	ops := float64(len(tr.samples))
	perOp := func(v float64) float64 { return v / math.Max(ops, 1) }
	var overhead, encode, parse, respKB, traceKB, spansN []float64
	byName := map[string][]float64{}
	counts := map[string]float64{}
	selfSum := map[string]float64{}
	for _, ot := range tr.traces {
		if ot.err != "" {
			return nil, fmt.Errorf("traced %s op: %s", ot.kind, ot.err)
		}
		overhead = append(overhead, ot.rtMS-ot.traceMS)
		encode = append(encode, ot.encodeUS)
		parse = append(parse, ot.parseUS)
		respKB = append(respKB, ot.respKB)
		traceKB = append(traceKB, ot.traceKB)
		spansN = append(spansN, float64(ot.spans))
		for n, d := range ot.byName {
			byName[n] = append(byName[n], d...)
		}
		for k, v := range ot.counts {
			counts[k] += v
		}
		for l, v := range ot.self {
			selfSum[l] += v
		}
	}
	spanMedian := func(name string) float64 { return median(byName[name]) }
	delta := func(name string) float64 { return m1.sum(name) - m0.sum(name) }
	const objSeries, actSeries = `svqact_detect_inferences_total{kind="object"}`, `svqact_detect_inferences_total{kind="action"}`
	objUnits, actUnits := m1[objSeries]-m0[objSeries], m1[actSeries]-m0[actSeries]
	inferenceMS := (objUnits*float64(detect.MaskRCNN.UnitCost) + actUnits*float64(detect.I3D.UnitCost)) / 1e6

	plainLat, tracedLat := plain.latencies(), tr.latencies()
	sort.Float64s(plainLat)
	sort.Float64s(tracedLat)

	res.add("sqlq.parse_us", "us", median(parse), parse)
	res.add("server.overhead_ms", "ms", median(overhead), overhead)
	res.add("server.response_kb", "KB", mean(respKB), respKB)
	res.add("server.encode_us", "us", median(encode), encode)
	res.add("server.rejected", "count", m1.sum("svqact_queries_rejected_total")+m1.sum("svqact_cluster_admission_rejected_total")-
		mA.sum("svqact_queries_rejected_total")-mA.sum("svqact_cluster_admission_rejected_total"), nil)
	res.add("server.latency_p99_ms", "ms", quantile(plainLat, 0.99), nil)
	res.add("server.latency_max_ms", "ms", quantile(plainLat, 1), nil)
	res.add("server.latency_samples", "count", float64(len(plainLat)), nil)
	res.add("core.run_ms", "ms", spanMedian("engine.run"), byName["engine.run"])
	res.add("core.run_cnf_ms", "ms", spanMedian("engine.run_cnf"), byName["engine.run_cnf"])
	res.add("core.fleet_ms", "ms", spanMedian("fleet.run_all"), byName["fleet.run_all"])
	res.add("core.clips_per_op", "count", perOp(counts["clips"]), nil)
	res.add("plan.skipped_evals_per_op", "count", perOp(delta("svqact_plan_skipped_evaluations_total")), nil)
	res.add("plan.replans_per_op", "count", perOp(delta("svqact_plan_replans_total")), nil)
	res.add("plan.lock_wait_us_per_op", "us", perOp(waits["plan"]*1e6), nil)
	res.add("detect.units_per_op", "count", perOp(objUnits+actUnits), nil)
	res.add("detect.inference_ms_per_op", "ms", perOp(inferenceMS), nil)
	res.add("detect.score_ns_per_unit", "ns", probes.scoreNS, nil)
	res.add("scanstat.cold_fill_s", "s", setup.Phases["warm"]-warm2, nil)
	res.add("scanstat.lock_wait_us_per_op", "us", perOp(waits["scanstat"]*1e6), nil)
	res.add("synth.generate_s", "s", setup.Phases["synth"], nil)
	res.add("rank.topk_ms", "ms", spanMedian("rank.topk"), byName["rank.topk"])
	res.add("rank.sorted_per_op", "count", perOp(counts["sorted"]), nil)
	res.add("rank.random_per_op", "count", perOp(counts["random"]), nil)
	res.add("rank.candidates_per_op", "count", perOp(counts["candidates"]), nil)
	res.add("rank.merge_ms", "ms", probes.mergeMS, nil)
	res.add("rank.ingest_s", "s", setup.Phases["rank"], nil)
	res.add("store.save_ms", "ms", probes.saveMS, nil)
	res.add("store.open_ms", "ms", probes.openMS, nil)
	wa := 0.0
	if sys.entryB > 0 {
		wa = float64(sys.writtenB) / float64(sys.entryB)
	}
	res.add("store.write_amplification", "ratio", wa, nil)
	res.add("cluster.topk_ms", "ms", spanMedian("cluster.topk"), byName["cluster.topk"])
	res.add("cluster.rounds_per_op", "count", perOp(counts["rounds"]), nil)
	res.add("cluster.attempts_per_op", "count", perOp(counts["attempts"]), nil)
	res.add("cluster.shard_attempt_ms", "ms", spanMedian("cluster.attempt"), byName["cluster.attempt"])
	res.add("cluster.start_s", "s", setup.Phases["cluster"], nil)
	res.add("obs.spans_per_op", "count", mean(spansN), spansN)
	res.add("obs.trace_kb_per_op", "KB", mean(traceKB), traceKB)
	res.add("trace.overhead_ms", "ms", quantile(tracedLat, 0.5)-quantile(plainLat, 0.5), nil)
	for _, l := range layers {
		res.add("self."+l+"_ms", "ms", perOp(selfSum[l]), nil)
	}
	orBad, orNote, err := crossShardNote(r, sys)
	if err != nil {
		return nil, err
	}
	res.add("cluster.or_group_mismatches", "count", float64(orBad), nil)
	if orNote != "" {
		res.notes = append(res.notes, orNote)
	}
	acc, notes := accounting(tr.traces)
	res.add("trace.accounting_error", "ratio", acc, nil)
	res.notes = append(res.notes, notes...)
	if p, ok := tailPercentile(len(plainLat)); ok {
		res.notes = append(res.notes, fmt.Sprintf("server latency %s = %.3f ms over %d untraced ops (p99 above is reported, not gated)",
			p.Name, quantile(plainLat, p.P/100), len(plainLat)))
	}
	var waitParts []string
	for _, pkg := range sortedKeys(waits) {
		waitParts = append(waitParts, fmt.Sprintf("%s %.1f us", pkg, waits[pkg]*1e6))
	}
	res.notes = append(res.notes, fmt.Sprintf("lock wait by acquiring svqact package (block profile, traced half, %d ops): %s",
		len(tr.samples), strings.Join(waitParts, ", ")))
	return res, nil
}

// accounting checks, per op type, that the layers' self times account for
// the traced round-trip p50 within a tenth, and returns the worst relative
// gap. The self times are the medians over the op type's middle tenth by
// round trip — the ops a p50 describes — since op sizes within one type
// vary too much for whole-type medians to add up.
func accounting(traces []opTrace) (float64, []string) {
	byKind := map[string][]opTrace{}
	for _, ot := range traces {
		byKind[ot.kind] = append(byKind[ot.kind], ot)
	}
	worst := 0.0
	var notes []string
	for _, kind := range sortedKeys(byKind) {
		ots := byKind[kind]
		var rt []float64
		for _, ot := range ots {
			rt = append(rt, ot.rtMS)
		}
		sort.Slice(ots, func(i, j int) bool { return ots[i].rtMS < ots[j].rtMS })
		lo, hi := len(ots)*45/100, len(ots)*55/100+1
		per := map[string][]float64{}
		for _, ot := range ots[lo:min(hi, len(ots))] {
			for _, l := range layers {
				per[l] = append(per[l], ot.self[l])
			}
		}
		sum := 0.0
		var parts []string
		for _, l := range layers {
			m := median(per[l])
			sum += m
			if m > 0 {
				parts = append(parts, fmt.Sprintf("%s %.3f", l, m))
			}
		}
		p50 := median(rt)
		gap := math.Abs(sum-p50) / p50
		worst = math.Max(worst, gap)
		verdict := "within a tenth"
		if gap > 0.1 {
			verdict = "NOT within a tenth"
		}
		notes = append(notes, fmt.Sprintf("%s (%d ops): layer self p50s [%s] sum %.3f ms vs round-trip p50 %.3f ms, %s",
			kind, len(ots), strings.Join(parts, ", "), sum, p50, verdict))
	}
	return worst, notes
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// metricsSnapshot is the sum of every scraped /metrics series.
type metricsSnapshot map[string]float64

// sum adds every series of one metric name, whatever its labels.
func (m metricsSnapshot) sum(name string) float64 {
	total := 0.0
	for s, v := range m {
		if s == name || strings.HasPrefix(s, name+"{") {
			total += v
		}
	}
	return total
}

// scrape reads /metrics from every server of the system and sums equal
// series across them.
func scrape(sys *system) (metricsSnapshot, error) {
	snap := metricsSnapshot{}
	for _, base := range sys.metricsURLs {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err == nil {
				snap[line[:i]] += v
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// lockWaits reads the block profile and attributes the seconds goroutines
// spent blocked acquiring a sync lock to the svqact/internal package whose
// code took it (the innermost svqact frame), e.g. "plan" or "scanstat".
func lockWaits() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("block").WriteTo(&buf, 1); err != nil {
		return nil, err
	}
	return parseBlockProfile(buf.String()), nil
}

func parseBlockProfile(text string) map[string]float64 {
	out := map[string]float64{}
	cyclesPerSec := 0.0
	var cycles float64
	var frames []string
	flush := func() {
		if cycles == 0 || cyclesPerSec == 0 {
			return
		}
		isLock, owner := false, ""
		for _, f := range frames {
			if strings.HasPrefix(f, "sync.(*Mutex).Lock") || strings.HasPrefix(f, "sync.(*RWMutex).") {
				isLock = true
			}
			if owner == "" && strings.HasPrefix(f, "svqact/internal/") {
				owner = strings.SplitN(strings.TrimPrefix(f, "svqact/internal/"), ".", 2)[0]
			}
		}
		if isLock && owner != "" {
			out[owner] += cycles / cyclesPerSec
		}
	}
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "cycles/second="):
			cyclesPerSec, _ = strconv.ParseFloat(strings.TrimPrefix(line, "cycles/second="), 64)
		case strings.HasPrefix(line, "#\t"):
			if f := strings.Fields(line); len(f) >= 3 {
				frames = append(frames, f[2])
			}
		case strings.Contains(line, " @ "):
			flush()
			cycles, frames = 0, nil
			if f := strings.Fields(line); len(f) > 0 {
				cycles, _ = strconv.ParseFloat(f[0], 64)
			}
		}
	}
	flush()
	return out
}

// probeResult holds the layer timings taken by direct calls.
type probeResult struct {
	scoreNS, mergeMS, saveMS, openMS float64
}

// directProbes times the layers whose work no response span covers:
// detector batch scoring on the online sources, and the repository's
// open, merged-view rebuild and save.
func directProbes(sys *system) (probeResult, error) {
	var p probeResult
	if sys.wl.Name == "online" {
		ref, err := newReferences(sys)
		if err != nil {
			return p, err
		}
		m := models()
		var perUnit []float64
		for _, q := range ref.yt.Queries {
			vids, err := ref.videos(q.Name)
			if err != nil {
				return p, err
			}
			v := vids[0]
			frames := make([]float64, min(2000, v.NumFrames()))
			shots := make([]float64, min(200, v.NumFrames()/v.Geometry().FramesPerShot))
			start := time.Now()
			detect.FrameScoreBatch(m.Objects, v, q.Objects[0], 0, frames)
			detect.ShotScoreBatch(m.Actions, v, q.Action, 0, shots)
			perUnit = append(perUnit, float64(time.Since(start).Nanoseconds())/float64(len(frames)+len(shots)))
		}
		p.scoreNS = median(perUnit)
		return p, nil
	}
	var open, merge, save []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		repo, err := rank.OpenRepository(sys.repoDir)
		if err != nil {
			return p, err
		}
		open = append(open, msSince(start))
		start = time.Now()
		_, err = repo.Merged()
		merge = append(merge, msSince(start))
		repo.Close()
		if err != nil {
			return p, err
		}
	}
	probeDir := filepath.Join(sys.dir, "probe")
	for round := 0; round < 2; round++ {
		for _, name := range sortedKeys(sys.indexes) {
			start := time.Now()
			if err := rank.Save(filepath.Join(probeDir, name), sys.indexes[name]); err != nil {
				return p, err
			}
			save = append(save, msSince(start))
		}
	}
	_ = os.RemoveAll(probeDir) // scratch copies; the run dir is removed at exit too
	p.openMS, p.mergeMS, p.saveMS = median(open), median(merge), median(save)
	return p, nil
}
