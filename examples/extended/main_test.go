package main

import (
	"strings"
	"testing"
)

// TestRun checks the example's deterministic output: each query's first
// result sequence and per-atom critical values. Latency varies run to run
// and is not checked.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"query: (jumping OR dancing) AND human\n  clips   5..8    ( 25.0s ..  45.0s)\n",
		"query: jumping AND dancing\n  clips  66..66   (330.0s .. 335.0s)\n",
		"query: jumping AND near(human,dog)\n  clips  13..18   ( 65.0s ..  95.0s)\n",
		"  atom dancing              k_crit=2 evaluated=720 positive clips=90\n",
		"  atom near(human,dog)      k_crit=3 evaluated=330 positive clips=16\n",
		"CNF query latency: n=3 ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "  clips "); n != 41 {
		t.Errorf("%d result sequences, want 41:\n%s", n, got)
	}
}
