package main

import (
	"strings"
	"testing"
)

// TestShell drives one online, one extended and one ranked OR-group
// statement through the shell loop.
func TestShell(t *testing.T) {
	in := `SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID)
WHERE act='blowing_leaves' AND obj.include('car')

SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID)
WHERE (act='blowing_leaves' OR act='kneeling') AND obj.include('car')

SELECT MERGE(clipID) AS s, RANK(act, obj) FROM (PROCESS q2 PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer)
WHERE (act='blowing_leaves' OR act='kneeling') AND obj.include('car') ORDER BY RANK(act, obj) LIMIT 3

`
	var out strings.Builder
	shell(strings.NewReader(in), &out, newExecutor())
	got := out.String()
	if strings.Contains(got, "error:") {
		t.Fatalf("a statement failed:\n%s", got)
	}
	for _, want := range []string{"SVAQD: 3 result sequences over 53 clips", "clips   14..17", "RVAQ-CNF top-3", "#1 score"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "SVAQD: "); n != 2 {
		t.Errorf("%d online answers, want 2:\n%s", n, got)
	}
}
