// Sqlshell: an interactive loop for the paper's SQL-like dialect over the
// benchmark datasets. Each statement is parsed, planned, and run through
// the shared statement executor — streaming (SVAQD) or top-k (RVAQ)
// depending on whether it ranks.
//
//	go run ./examples/sqlshell
//	svq> SELECT MERGE(clipID) AS s FROM (PROCESS q2 PRODUCE clipID,
//	     obj USING ObjectDetector, act USING ActionRecognizer)
//	     WHERE act='blowing_leaves' AND obj.include('car')
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"svqact/internal/core"
	"svqact/internal/detect"
	"svqact/internal/query"
	"svqact/internal/sqlq"
)

func main() {
	fmt.Println("benchmark datasets at scale 0.15")
	fmt.Println("sources: q1..q12 (each the concatenated videos of one query set) and the movie titles")
	fmt.Println("end statements with a blank line; ctrl-D exits")
	shell(os.Stdin, os.Stdout, newExecutor())
}

func newExecutor() *query.Executor {
	return query.New(query.Config{
		Models: detect.NewModels(
			detect.NewObjectDetector(detect.MaskRCNN, 42),
			detect.NewActionRecognizer(detect.I3D, 42),
		),
		Engine: core.DefaultConfig(),
		Scale:  0.15,
		Seed:   42,
	})
}

// shell reads blank-line-terminated statements from in and prints each
// answer, or its error, to out.
func shell(in io.Reader, out io.Writer, exec *query.Executor) {
	scanner := bufio.NewScanner(in)
	var buf strings.Builder
	fmt.Fprint(out, "svq> ")
	for scanner.Scan() {
		line := scanner.Text()
		if strings.TrimSpace(line) != "" {
			buf.WriteString(line)
			buf.WriteByte('\n')
			fmt.Fprint(out, "...> ")
			continue
		}
		stmt := strings.TrimSpace(buf.String())
		buf.Reset()
		if stmt != "" {
			if err := runStatement(out, exec, stmt); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		}
		fmt.Fprint(out, "svq> ")
	}
	fmt.Fprintln(out)
}

func runStatement(out io.Writer, exec *query.Executor, stmt string) error {
	st, err := sqlq.Parse(stmt)
	if err != nil {
		return err
	}
	p, err := st.Plan()
	if err != nil {
		return err
	}
	ans, err := exec.Execute(context.Background(), p, query.Request{})
	if err != nil {
		return err
	}
	if p.Online {
		fmt.Fprintf(out, "%s: %d result sequences over %d clips:\n", ans.Mode, len(ans.Sequences), ans.NumClips)
		for _, s := range ans.Sequences {
			fmt.Fprintf(out, "  clips %4d..%-4d\n", s.StartClip, s.EndClip)
		}
		return nil
	}
	fmt.Fprintf(out, "%s top-%d of %d candidates (%d random accesses):\n", ans.Mode, ans.K, ans.Candidates, ans.RandomAccesses)
	for i, s := range ans.Sequences {
		fmt.Fprintf(out, "  #%d score %9.2f  %s clips %d..%d\n", i+1, s.Score, s.Video, s.StartClip, s.EndClip)
	}
	return nil
}
