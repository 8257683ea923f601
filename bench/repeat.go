package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// repeatSummary is what -repeat saves, so that a later set can be
// compared with it.
type repeatSummary struct {
	Workload string               `json:"workload"`
	Seeds    []int64              `json:"seeds"`
	Values   map[string][]float64 `json:"values"` // per metric, in seed order
}

// quartiles returns the three quartiles as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method),
// which is what the benchmark's driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// declaredBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory, if it is there.
func declaredBounds() map[string]float64 {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(raw, &decl) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range decl.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// repeatRuns runs the workload n times, each in a fresh process with
// its own seed, and prints per metric the median, the quartiles and
// their distance as a share of the median. With against, it also prints
// how far this set's medians are from the earlier set's, next to the
// declared bound.
func repeatRuns(name string, seed int64, seconds, n int, outDir, against string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// The earlier set is checked before the runs, not after them.
	var earlier *repeatSummary
	if against != "" {
		raw, err := os.ReadFile(against)
		if err != nil {
			return err
		}
		earlier = &repeatSummary{}
		if err := json.Unmarshal(raw, earlier); err != nil {
			return fmt.Errorf("%s: %w", against, err)
		}
		if earlier.Workload != name {
			return fmt.Errorf("%s holds runs of %q, not of %q", against, earlier.Workload, name)
		}
		for _, m := range endToEnd {
			if len(earlier.Values[m.name]) == 0 {
				return fmt.Errorf("%s has no values of %s", against, m.name)
			}
		}
	}
	sum := repeatSummary{Workload: name, Values: map[string][]float64{}}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.Itoa(seconds), "-out", outDir)
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w\n%s", i+1, s, err, out)
		}
		res, err := lastResult(out)
		if err != nil {
			return err
		}
		sum.Seeds = append(sum.Seeds, s)
		for _, m := range endToEnd {
			sum.Values[m.name] = append(sum.Values[m.name], res.Metrics[m.name].Value)
		}
		fmt.Fprintf(os.Stderr, "bench: run %d/%d (seed %d) done\n", i+1, n, s)
	}
	bounds := declaredBounds()
	fmt.Printf("### %s, %d runs, seeds %d..%d\n\n", name, n, seed, seed+int64(n)-1)
	if earlier == nil {
		fmt.Println("| metric | unit | median | q1 | q3 | (q3-q1)/median | bound |")
		fmt.Println("|---|---|---|---|---|---|---|")
	} else {
		fmt.Println("| metric | unit | median | q1 | q3 | (q3-q1)/median | earlier median | gap of medians | bound |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
	}
	for _, m := range endToEnd {
		q1, q2, q3 := quartiles(sum.Values[m.name])
		bound := "-"
		if b, ok := bounds[m.name]; ok {
			bound = fmt.Sprintf("%.1f %%", 100*b)
		}
		row := fmt.Sprintf("| %s | %s | %.4f | %.4f | %.4f | %.2f %% |", m.name, m.unit, q2, q1, q3, 100*(q3-q1)/q2)
		if earlier != nil {
			_, e2, _ := quartiles(earlier.Values[m.name])
			row += fmt.Sprintf(" %.4f | %+.2f %% |", e2, 100*(q2-e2)/e2)
		}
		fmt.Printf("%s %s |\n", row, bound)
	}
	fmt.Println()
	raw, err := json.MarshalIndent(sum, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, name+".repeat.json")
	fmt.Fprintf(os.Stderr, "bench: saved %s\n", path)
	return os.WriteFile(path, raw, 0o644)
}
