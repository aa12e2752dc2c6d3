package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
)

// savedResult is the result file one run writes.
type savedResult struct {
	Config struct {
		Key map[string]any `json:"key"`
		Env map[string]any `json:"env"`
	} `json:"config"`
	Metrics []metric `json:"metrics"`
	Correct bool     `json:"correct"`
}

// compare prints, per workload and metric, the median across runs of each
// of two result directories. It refuses when any two results of one
// workload were taken under different config keys: numbers measured on
// another machine shape, Go version, connection count or op mix are not
// comparable.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare <results-dir-A> <results-dir-B>")
	}
	sides := make([]map[string][]savedResult, 2)
	keys := map[string]map[string]any{}
	for i, dir := range args {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return fmt.Errorf("%s holds no result files", dir)
		}
		sides[i] = map[string][]savedResult{}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			var r savedResult
			if err := json.Unmarshal(data, &r); err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			group := fmt.Sprintf("%v/trace%v", r.Config.Key["workload"], r.Config.Key["trace"])
			if k, ok := keys[group]; ok && !reflect.DeepEqual(k, r.Config.Key) {
				return fmt.Errorf("%s: config key differs from another %s result:\n  %v\n  %v", f, group, k, r.Config.Key)
			}
			keys[group] = r.Config.Key
			sides[i][group] = append(sides[i][group], r)
		}
	}
	groups := make([]string, 0, len(keys))
	for g := range keys {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		a, b := sides[0][g], sides[1][g]
		if len(a) == 0 || len(b) == 0 {
			fmt.Printf("%s: only one side has results; skipped\n", g)
			continue
		}
		fmt.Printf("%s (A: %d runs, B: %d runs)\n", g, len(a), len(b))
		for _, m := range a[0].Metrics {
			ma, mb := metricMedian(a, m.Name), metricMedian(b, m.Name)
			change := "n/a"
			if ma != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(mb-ma)/ma)
			}
			fmt.Printf("  %-28s %-6s A %12.6g  B %12.6g  %s\n", m.Name, m.Unit, ma, mb, change)
		}
	}
	return nil
}

func metricMedian(rs []savedResult, name string) float64 {
	var xs []float64
	for _, r := range rs {
		for _, m := range r.Metrics {
			if m.Name == name {
				xs = append(xs, m.Value)
			}
		}
	}
	return median(xs)
}
