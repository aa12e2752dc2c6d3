package main

import (
	"strings"
	"testing"
)

// TestRun checks the example's deterministic output: SVAQ's and SVAQD's
// accuracy and final car background, and SVAQD's background trajectory
// rising with the first traffic peak. Latency varies run to run and is not
// checked.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"query {o1=person; o2=car; a=running} over one hour of drifting traffic\n",
		"SVAQ (static p0=1e-4)    sequences=25  precision=0.04 recall=0.33 F1=0.07\n",
		"                         car background estimate: 0.0001 (k_crit=2)\n",
		"SVAQD (adaptive)         sequences=5   precision=0.60 recall=1.00 F1=0.75\n",
		"                         car background estimate: 0.0237 (k_crit=7)\n",
		"  t= 2.0min  p=0.0001 \n",
		"  t= 8.0min  p=0.0371 **************\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "min  p="); n != 30 {
		t.Errorf("%d trajectory samples, want 30:\n%s", n, got)
	}
}
