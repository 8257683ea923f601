package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// declaration mirrors BENCHMARK.json.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var metricLine = regexp.MustCompile(`^(\S+)\s+(-?[0-9.]+)\s+(\S+)$`)

// TestSmoke runs every workload at 1/20 scale, untraced and traced, and
// checks that what a run prints is what BENCHMARK.json declares: every
// declared metric exactly once, with its unit and a finite value, and
// nothing undeclared. It keeps the names from drifting apart.
// failed_ratio is the exception: an untraced run prints it, and
// BENCHMARK.json cannot declare a metric that is always 0.
func TestSmoke(t *testing.T) {
	d := readDeclaration(t)
	if d.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the workloads are sized for %d", d.RunSeconds, runSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range d.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	units[false][failedRatio.name] = failedRatio.unit
	for _, m := range d.PerLayer {
		units[true][m.Name] = m.Unit
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q (%s) in BENCHMARK.json, %q (%s) in the benchmark",
				i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 1, scale: smokeScale, smoke: true, trace: trace, outDir: t.TempDir()}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := emit(&out, cfg, rep); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			seen := map[string]int{}
			for _, line := range lines[1 : len(lines)-1] {
				m := metricLine.FindSubmatch(line)
				if m == nil {
					t.Errorf("%s trace=%v: unexpected line %q", w.name, trace, line)
					continue
				}
				name := string(m[1])
				seen[name]++
				unit, declared := units[trace][name]
				if !declared {
					t.Errorf("%s trace=%v: prints undeclared metric %s", w.name, trace, name)
				} else if unit != string(m[3]) {
					t.Errorf("%s trace=%v: %s printed in %s, declared in %s", w.name, trace, name, m[3], unit)
				}
				if v, err := strconv.ParseFloat(string(m[2]), 64); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s has value %q", w.name, trace, name, m[2])
				}
			}
			for name := range units[trace] {
				if seen[name] != 1 {
					t.Errorf("%s trace=%v: declared metric %s printed %d times", w.name, trace, name, seen[name])
				}
			}
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", w.name, trace, err)
			}
			declared := len(d.PerLayer)
			if !trace {
				declared = len(d.EndToEnd)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != declared {
				t.Errorf("%s trace=%v: result %+v", w.name, trace, res)
			}
		}
	}
}

// TestInputsFollowTheSeed checks that a workload's generated op sequence
// is a function of the seed alone.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) string {
			f, err := generate(runConfig{workload: w.name, seed: seed, scale: smokeScale, smoke: true}, w)
			if err != nil {
				t.Fatal(err)
			}
			return f.digest
		}
		a, again, b := gen(7), gen(7), gen(8)
		if a != again {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.name, a)
		}
	}
}
