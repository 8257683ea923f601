// Command bench is StoryPivot's end-to-end benchmark: four fixed-work
// workloads over one corpus, nine end-to-end metrics per workload, and
// a -trace mode that attributes the time to named layers. See README.md.
//
//	go build -o bench/bin/bench ./bench
//	bench/bin/bench -workload read-only -seed 1
//	bench/bin/bench -workload mixed-serve -seed 1 -trace 1
//	bench/bin/bench -workload ingest-stream -repeat 5
//
// One process runs one workload once: internal/vocab interns symbols
// process-wide, so a second workload in the same process would start
// from a warm interner.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// processStart is where setup_s starts counting.
var processStart = time.Now()

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "ingest-stream, read-only, mixed-serve or cluster-mixed")
		seed    = flag.Int64("seed", 1, "seed of the delivery order and the read mix")
		seconds = flag.Int("seconds", runSeconds, "measured-phase length the fixed work is scaled to")
		trace   = flag.Int("trace", 0, "1: record spans, replay the onion, print the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "1/20 of the work over a small corpus; skips the pinned floors")
		repeat  = flag.Int("repeat", 0, "run the workload this many times in fresh processes and summarise")
		against = flag.String("against", "", "with -repeat: a summary file of an earlier set to compare medians with")
		outDir  = flag.String("out", defaultOutDir(), "directory for traces, stores and summaries")
	)
	flag.Parse()
	if _, ok := findWorkload(*name); !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*name, *seed, *seconds, *repeat, *outDir, *against); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		scale:    float64(*seconds) / runSeconds,
		smoke:    *smoke,
		trace:    *trace != 0,
		outDir:   *outDir,
		started:  processStart,
		log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
		},
	}
	if *smoke {
		cfg.scale = smokeScale
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOutDir is bench/out next to bench/bin, wherever the binary was
// built; a binary elsewhere (go run, go test) falls back to the working
// directory's bench/out.
func defaultOutDir() string {
	if exe, err := os.Executable(); err == nil && filepath.Base(filepath.Dir(exe)) == "bin" {
		return filepath.Join(filepath.Dir(filepath.Dir(exe)), "out")
	}
	return filepath.Join("bench", "out")
}

// emit prints the input digest, any failed checks, a table of the
// metrics, and last the result line. A run whose checks failed prints
// its findings and returns an error instead of a result.
//
// failed_ratio is printed with the end-to-end metrics but is not in the
// result line: it is 0 on every correct run, and a declared metric may
// never be 0. The line's failed and attempted carry it.
func emit(w io.Writer, cfg runConfig, rep *report) error {
	list := endToEnd
	if cfg.trace {
		list = perLayer
	}
	fmt.Fprintf(w, "workload=%s seed=%d trace=%v input_digest=%s\n", cfg.workload, cfg.seed, cfg.trace, rep.digest)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", p)
	}
	res := result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(list))}
	for _, m := range list {
		v, ok := rep.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value (%v)", m.name, v)
		}
		fmt.Fprintf(w, "%-34s %16.4f %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	if !cfg.trace {
		fmt.Fprintf(w, "%-34s %16.4f %s\n", failedRatio.name, rep.values[failedRatio.name], failedRatio.unit)
	}
	if !rep.correct() {
		return errIncorrect
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// lastResult decodes the final line of a run's output.
func lastResult(out []byte) (*result, error) {
	line := bytes.TrimRight(out, "\n")
	line = line[bytes.LastIndexByte(line, '\n')+1:]
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		return nil, fmt.Errorf("decoding result line %q: %w", line, err)
	}
	return &res, nil
}
