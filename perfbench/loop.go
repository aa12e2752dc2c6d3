package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// connections is the closed loop's width: each connection sends its next
// request only after the previous reply has been read.
const connections = 2

// sample is one completed op.
type sample struct {
	tmpl  int
	latMS float64
	endS  float64 // completion, seconds after the loop started
	ok    bool
	ans   string // canonical answer, checked after the loop
}

// answerKey identifies one distinct answer a template received.
type answerKey struct {
	tmpl int
	ans  string
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	samples   []sample
	errs      []string // first few transport/status/generation failures
	windows   []window
	traces    []opTrace // traced phases only
	completed atomic.Int64
}

// windowLen is the loop's sampling interval. End-to-end metrics are
// medians across the windows in which the hypervisor took least CPU from
// the machine (see cleanWindows), so neither a stall nor a spell of
// contention on a shared host moves them much.
const windowLen = 500 * time.Millisecond

// window is one sampling interval of the loop.
type window struct {
	ops    int64
	cpuS   float64
	stealS float64 // CPU seconds the hypervisor ran other guests on this machine's CPUs
}

type runner struct {
	sys     *system
	seq     []int
	next    atomic.Int64
	clients []*http.Client
	traced  bool
}

func newRunner(sys *system, seq []int) *runner {
	r := &runner{sys: sys, seq: seq}
	for i := 0; i < connections; i++ {
		r.clients = append(r.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return r
}

func (r *runner) closeIdle() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
}

// warm sends every non-commit template once, in catalog order, and
// returns the seconds it took. Any failure aborts the run.
func (r *runner) warm() (float64, error) {
	start := time.Now()
	for i, t := range r.sys.wl.Templates {
		if t.Kind == kindCommit {
			continue
		}
		status, body, err := r.send(r.clients[0], &t)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("warm-up op %d (%s) answered %d: %s", i, t.Kind, status, truncate(body))
		}
	}
	return time.Since(start).Seconds(), nil
}

func (r *runner) send(c *http.Client, t *template) (int, []byte, error) {
	resp, err := c.Post(r.sys.target+t.Path, "application/json", bytes.NewReader(t.Body))
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// run drives the closed loop for the given duration.
func (r *runner) run(d time.Duration) *loopResult {
	res := &loopResult{}
	start := time.Now()
	deadline := start.Add(d)
	cpu0 := processCPU()
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		lastOps, lastCPU, lastSteal := int64(0), cpu0, stealSeconds()
		// Window k ends at start+k*windowLen, so it lines up with the
		// samples binned by completion time, even if a wake-up is late.
		for k := 1; k <= int(d/windowLen); k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * windowLen)))
			ops, cpu, steal := res.completed.Load(), processCPU(), stealSeconds()
			res.windows = append(res.windows, window{ops - lastOps, cpu - lastCPU, steal - lastSteal})
			lastOps, lastCPU, lastSteal = ops, cpu, steal
		}
	}()
	outs := make([]*loopResult, connections)
	var wg sync.WaitGroup
	for i := range r.clients {
		outs[i] = &loopResult{}
		wg.Add(1)
		go func(c *http.Client, out *loopResult) {
			defer wg.Done()
			r.worker(c, start, deadline, out, &res.completed)
		}(r.clients[i], outs[i])
	}
	wg.Wait()
	sampler.Wait()
	for _, o := range outs {
		res.samples = append(res.samples, o.samples...)
		res.errs = append(res.errs, o.errs...)
		res.traces = append(res.traces, o.traces...)
	}
	return res
}

// worker is one connection of the closed loop. Answers are decoded after
// the op's latency is taken and checked against references after the loop.
func (r *runner) worker(c *http.Client, start, deadline time.Time, out *loopResult, completed *atomic.Int64) {
	lastGen := 0
	// Identical answers share one string, so the samples kept for checking
	// do not grow the heap with the number of ops.
	interned := map[string]string{}
	fail := func(s *sample, msg string) {
		s.ok = false
		if len(out.errs) < 5 {
			out.errs = append(out.errs, msg)
		}
	}
	for time.Now().Before(deadline) {
		i := r.next.Add(1) - 1
		ti := r.seq[int(i)%len(r.seq)]
		t := &r.sys.wl.Templates[ti]
		opStart := time.Now()
		s := sample{tmpl: ti, ok: true}
		if t.Kind == kindCommit {
			gen, err := r.sys.commit(c, t.Member)
			s.latMS = msSince(opStart)
			switch {
			case err != nil:
				fail(&s, "commit: "+err.Error())
			case gen < lastGen:
				fail(&s, fmt.Sprintf("commit: reload generation went back from %d to %d", lastGen, gen))
			default:
				lastGen = gen
			}
		} else {
			status, body, err := r.send(c, t)
			s.latMS = msSince(opStart)
			switch {
			case err != nil:
				fail(&s, t.Kind+": "+err.Error())
			case status == http.StatusTooManyRequests:
				fail(&s, t.Kind+": refused (429)")
			case status != http.StatusOK:
				fail(&s, fmt.Sprintf("%s: status %d: %s", t.Kind, status, truncate(body)))
			default:
				ans, gen, err := canonicalAnswer(t, body)
				if err != nil {
					fail(&s, t.Kind+": "+err.Error())
					break
				}
				if gen < lastGen {
					fail(&s, fmt.Sprintf("%s: answered by generation %d after %d", t.Kind, gen, lastGen))
				}
				lastGen = max(lastGen, gen)
				if a, ok := interned[ans]; ok {
					ans = a
				} else {
					interned[ans] = ans
				}
				s.ans = ans
				if r.traced {
					out.traces = append(out.traces, traceOp(t, s.latMS, body))
				}
			}
		}
		s.endS = time.Since(start).Seconds()
		out.samples = append(out.samples, s)
		completed.Add(1)
	}
}

// Answer decoding. Canonical answers are compact strings so that identical
// answers collapse; ranked entries are "video|start|end|score".
type seqJSON struct {
	Video     string  `json:"video"`
	StartClip int     `json:"start_clip"`
	EndClip   int     `json:"end_clip"`
	Score     float64 `json:"score"`
}

func canonicalAnswer(t *template, body []byte) (string, int, error) {
	switch t.Kind {
	case kindBatch:
		var b struct {
			Videos []struct {
				ID        string    `json:"id"`
				Outcome   string    `json:"outcome"`
				Sequences []seqJSON `json:"sequences"`
			} `json:"videos"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return "", 0, err
		}
		if b.Error != "" {
			return "", 0, fmt.Errorf("fleet cut short: %s", b.Error)
		}
		var sb strings.Builder
		for _, v := range b.Videos {
			fmt.Fprintf(&sb, "%s:%s:%s;", v.ID, v.Outcome, clipRanges(v.Sequences))
		}
		return sb.String(), 0, nil
	case kindRanked, kindRankCNF:
		var a struct {
			Generation int       `json:"generation"`
			Sequences  []seqJSON `json:"sequences"`
			Degraded   bool      `json:"degraded"`
			Error      string    `json:"error"`
		}
		if err := json.Unmarshal(body, &a); err != nil {
			return "", 0, err
		}
		if a.Degraded || a.Error != "" {
			return "", 0, fmt.Errorf("degraded answer: %s", a.Error)
		}
		return rankedString(a.Sequences), a.Generation, nil
	default:
		var q struct {
			Sequences []seqJSON `json:"sequences"`
		}
		if err := json.Unmarshal(body, &q); err != nil {
			return "", 0, err
		}
		return clipRanges(q.Sequences), 0, nil
	}
}

func clipRanges(seqs []seqJSON) string {
	var sb strings.Builder
	for _, s := range seqs {
		fmt.Fprintf(&sb, "%d-%d,", s.StartClip, s.EndClip)
	}
	return sb.String()
}

func rankedString(seqs []seqJSON) string {
	var sb strings.Builder
	for _, s := range seqs {
		fmt.Fprintf(&sb, "%s|%d|%d|%v;", s.Video, s.StartClip, s.EndClip, s.Score)
	}
	return sb.String()
}

func parseRanked(s string) ([]seqJSON, error) {
	var out []seqJSON
	for _, e := range strings.Split(strings.TrimSuffix(s, ";"), ";") {
		if e == "" {
			continue
		}
		f := strings.Split(e, "|")
		if len(f) != 4 {
			return nil, fmt.Errorf("bad ranked entry %q", e)
		}
		var q seqJSON
		q.Video = f[0]
		if _, err := fmt.Sscanf(f[1]+" "+f[2]+" "+f[3], "%d %d %g", &q.StartClip, &q.EndClip, &q.Score); err != nil {
			return nil, fmt.Errorf("bad ranked entry %q: %w", e, err)
		}
		out = append(out, q)
	}
	return out, nil
}

// latencies returns every op's latency in ms; failed ops count as +Inf, so
// they miss any latency limit.
func (l *loopResult) latencies() []float64 {
	out := make([]float64, len(l.samples))
	for i, s := range l.samples {
		out[i] = s.latMS
		if !s.ok {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// stealSeconds returns the machine's steal time so far: CPU time, summed
// over its CPUs, that the hypervisor gave to other guests while this one
// was ready to run (/proc/stat, in USER_HZ ticks of 1/100 s). It is 0 where
// /proc/stat is missing or does not report steal.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

func truncate(b []byte) string {
	if len(b) > 300 {
		b = b[:300]
	}
	return strings.TrimSpace(string(b))
}
