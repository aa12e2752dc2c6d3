package main

import (
	"math"
	"regexp"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending sample,
// interpolating linearly between the two closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || math.IsInf(sorted[lo+1], 1) {
		// Failed ops sort last as +Inf; never interpolate towards them.
		return sorted[lo+int(math.Ceil(frac))]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// cleanWindows marks the windows whose steal is at most the median steal
// across windows: at least half of them, and all of them when the host
// reports no steal. On a shared host the hypervisor now and then runs other
// guests on this machine's CPUs for a good share of a second; ops in those
// windows measure the neighbours, not the program.
func cleanWindows(steal []float64) []bool {
	kept := make([]bool, len(steal))
	if len(steal) == 0 {
		return kept
	}
	limit := median(steal)
	for i, s := range steal {
		kept[i] = s <= limit
	}
	return kept
}

// percentile is one rung of the tail-percentile ladder: the p-th percentile
// leaves one sample in every share of the sample beyond it.
type percentile struct {
	Name  string
	P     float64
	share int
}

var percentileLadder = []percentile{
	{"p50", 50, 2}, {"p90", 90, 10}, {"p99", 99, 100}, {"p99.9", 99.9, 1000}, {"p99.99", 99.99, 10000},
}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten samples beyond it in a sample of n, and false when even the
// median does not.
func tailPercentile(n int) (percentile, bool) {
	best, ok := percentile{}, false
	for _, p := range percentileLadder {
		if n >= 10*p.share {
			best, ok = p, true
		}
	}
	return best, ok
}

// summary is one metric's distribution within a run.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// span is one interval of a request's trace tree, in milliseconds from the
// start of the benchmark's round-trip span.
type span struct {
	ID, Parent string
	Name       string
	Layer      string
	Start, Dur float64
	Attrs      map[string]any
}

func (s *span) end() float64 { return s.Start + s.Dur }

// selfTimes attributes every instant of the root span (spans[0]) to the
// spans active at that instant that have no active child, splitting it
// equally when several are. A span's share is therefore its duration minus
// the union of its children's intervals, and the shares of all spans add up
// to the root's duration even when children run concurrently.
func selfTimes(spans []*span) []float64 {
	out := make([]float64, len(spans))
	if len(spans) == 0 {
		return out
	}
	root := spans[0]
	idx := map[string]int{}
	for i, s := range spans {
		idx[s.ID] = i
	}
	parent := make([]int, len(spans))
	var cuts []float64
	for i, s := range spans {
		parent[i] = -1
		if p, ok := idx[s.Parent]; ok && i > 0 {
			parent[i] = p
		}
		cuts = append(cuts, clamp(s.Start, root.Start, root.end()), clamp(s.end(), root.Start, root.end()))
	}
	sort.Float64s(cuts)
	active := make([]bool, len(spans))
	hasActiveChild := make([]bool, len(spans))
	for c := 1; c < len(cuts); c++ {
		a, b := cuts[c-1], cuts[c]
		if b <= a {
			continue
		}
		mid := (a + b) / 2
		for i, s := range spans {
			active[i] = s.Start <= mid && mid < s.end()
			hasActiveChild[i] = false
		}
		for i := range spans {
			if active[i] && parent[i] >= 0 {
				hasActiveChild[parent[i]] = true
			}
		}
		leaves := 0
		for i := range spans {
			if active[i] && !hasActiveChild[i] {
				leaves++
			}
		}
		for i := range spans {
			if active[i] && !hasActiveChild[i] {
				out[i] += (b - a) / float64(leaves)
			}
		}
	}
	return out
}

func clamp(x, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, x)) }

// metricNameRe is the shape every metric name must have.
var metricNameRe = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
