package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
)

func TestOpSequenceDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{"online", "ranked", "cluster"} {
		wl, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := wl.opSequence(7, 5000), wl.opSequence(7, 5000)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if c := wl.opSequence(8, 5000); slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
		// Every deck carries the same mix whatever the seed.
		count := func(seq []int) map[int]int {
			m := map[int]int{}
			for _, i := range seq {
				m[i]++
			}
			return m
		}
		deck := 0
		for _, tp := range wl.Templates {
			deck += int(math.Round(tp.Weight * deckSize))
		}
		if !reflect.DeepEqual(count(a[:deck]), count(wl.opSequence(8, deck))) {
			t.Errorf("%s: decks of seeds 7 and 8 hold different mixes", name)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want string
		ok   bool
	}{
		{19, "", false},
		{20, "p50", true},
		{99, "p50", true},
		{100, "p90", true},
		{999, "p90", true},
		{1000, "p99", true},
		{9999, "p99", true},
		{10000, "p99.9", true},
		{100000, "p99.99", true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p.Name != c.want {
			t.Errorf("tailPercentile(%d) = %q, %v; want %q, %v", c.n, p.Name, ok, c.want, c.ok)
		}
		if ok {
			// Samples strictly above rank ceil(P% of n), in exact integers.
			per100k := int(math.Round(p.P * 1000))
			beyond := c.n - (per100k*c.n+99999)/100000
			if beyond < 10 {
				t.Errorf("n=%d: %s leaves %d samples beyond it", c.n, p.Name, beyond)
			}
		}
	}
}

func TestQuantileNeverInterpolatesFailures(t *testing.T) {
	xs := []float64{1, 2, 3, math.Inf(1)}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf (a failed op)", got)
	}
}

func TestCleanWindowsDropsStolenWindows(t *testing.T) {
	got := cleanWindows([]float64{0, 0.01, 0.3, 0, 0.02, 0.25})
	want := []bool{true, true, false, true, false, false}
	if !slices.Equal(got, want) {
		t.Errorf("cleanWindows = %v, want %v", got, want)
	}
	// A host that reports no steal keeps every window.
	if got := cleanWindows([]float64{0, 0, 0}); !slices.Equal(got, []bool{true, true, true}) {
		t.Errorf("no steal: cleanWindows = %v, want all kept", got)
	}
	// Steal in every window still keeps at least half of them.
	kept := 0
	for _, k := range cleanWindows([]float64{0.2, 0.4, 0.1, 0.3}) {
		if k {
			kept++
		}
	}
	if kept != 2 {
		t.Errorf("steal everywhere: kept %d of 4 windows, want 2", kept)
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []*span{
		{ID: "root", Start: 0, Dur: 10},
		{ID: "a", Parent: "root", Start: 1, Dur: 8},
		{ID: "b", Parent: "a", Start: 2, Dur: 3},         // [2,5)
		{ID: "c", Parent: "a", Start: 4, Dur: 2},         // [4,6), overlaps b
		{ID: "d", Parent: "a", Start: 7, Dur: 1},         // [7,8)
		{ID: "e", Parent: "root", Start: 9.5, Dur: 0.25}, // [9.5,9.75)
	}
	self := selfTimes(spans)
	// a covers [1,9); its children's union is [2,6) + [7,8) = 5.
	if got := self[1]; math.Abs(got-(8-5)) > 1e-9 {
		t.Errorf("self(a) = %v, want 3", got)
	}
	// root covers [0,10); its children's union is [1,9) + [9.5,9.75).
	if got := self[0]; math.Abs(got-(10-8-0.25)) > 1e-9 {
		t.Errorf("self(root) = %v, want 1.75", got)
	}
	// b and c overlap on [4,5) and split it.
	if got := self[2]; math.Abs(got-2.5) > 1e-9 {
		t.Errorf("self(b) = %v, want 2.5", got)
	}
	sum := 0.0
	for _, s := range self {
		sum += s
	}
	if math.Abs(sum-10) > 1e-9 {
		t.Errorf("self times add up to %v, want the root's 10", sum)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(what string, listed []struct{ Name, Unit string }, code []metricSpec) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(listed), len(code))
		}
		for i := range min(len(listed), len(code)) {
			if listed[i].Name != code[i].Name || listed[i].Unit != code[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					what, i, listed[i].Name, listed[i].Unit, code[i].Name, code[i].Unit)
			}
		}
		for _, m := range code {
			if !metricNameRe.MatchString(m.Name) || len(m.Name) > 64 {
				t.Errorf("metric name %q does not match %s", m.Name, metricNameRe)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics)
	check("per_layer", bj.PerLayer, perLayerMetrics)
	for _, w := range bj.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
}

func TestParseBlockProfileAttributesLockWaits(t *testing.T) {
	profile := `--- contention:
cycles/second=1000000000
2000000 3 @ 0x1 0x2 0x3
#	0x1	sync.(*Mutex).Lock+0x1	/go/src/sync/mutex.go:1
#	0x2	svqact/internal/plan.(*Planner).Observe+0x1	/p/plan.go:1
#	0x3	svqact/internal/core.(*Run).Step+0x1	/p/engine.go:1

5000000 1 @ 0x4 0x5
#	0x4	runtime.chanrecv1+0x1	/go/src/runtime/chan.go:1
#	0x5	svqact/internal/scanstat.Shared+0x1	/p/naus.go:1
`
	got := parseBlockProfile(profile)
	if math.Abs(got["plan"]-0.002) > 1e-12 || len(got) != 1 {
		t.Errorf("parseBlockProfile = %v, want plan 2ms and no channel waits", got)
	}
}
