// Package experiments implements the reproduction harness for the paper's
// evaluation artifacts (DESIGN.md experiment index E1–E10). Each
// experiment is a pure function from a configuration to result rows, so
// the same code drives `go test -bench`, the storypivot-bench CLI, and the
// statistics module of the demo server.
//
// The paper's Figure 7 reports two charts over the GDELT dataset —
// execution time (ms) vs #events and F-measure vs #events, for the
// available story identification (SI) and story alignment (SA) methods.
// E1 and E2 regenerate those series; E3–E10 cover the remaining design
// claims (sliding windows, sketches, incremental repair, out-of-order
// delivery, dynamic source addition, refinement).
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/event"
	"repro/internal/identify"
)

// CorpusScale produces a generator config that yields approximately the
// requested number of snippets. The shape knobs (sources, story length,
// coverage) stay constant so that scaling the corpus scales the number of
// stories, matching how a longer GDELT window has more stories, not longer
// ones.
func CorpusScale(targetSnippets int, sources int, seed int64) datagen.Config {
	cfg := datagen.DefaultConfig()
	cfg.Seed = seed
	cfg.Sources = sources
	// Expected snippets ≈ stories * events/story * sources * meanCoverage.
	// Generator draws events/story in [0.5x, 1.5x) and coverage per source
	// in [0.6c, 1.4c); use the means.
	perStory := float64(cfg.EventsPerStory) * float64(sources) * cfg.Coverage
	stories := int(float64(targetSnippets) / perStory)
	if stories < 2 {
		stories = 2
	}
	cfg.Stories = stories
	return cfg
}

// TruthAssignment converts generator ground truth into an eval.Assignment.
func TruthAssignment(c *datagen.Corpus) eval.Assignment {
	truth := make(eval.Assignment, len(c.Truth))
	for id, l := range c.Truth {
		truth[id] = l
	}
	return truth
}

// PerSourceF1 micro-averages identification quality per source: each
// source's assignment is scored against ground truth restricted to that
// source's snippets, weighting sources by snippet count. This isolates SI
// quality from the cross-source linking that only SA can provide.
func PerSourceF1(ids map[event.SourceID]*identify.Identifier, truth eval.Assignment) float64 {
	var weighted, total float64
	for _, id := range ids {
		pred := eval.Assignment{}
		inSrc := map[event.SnippetID]bool{}
		for k, v := range id.Assignment() {
			pred[k] = uint64(v)
			inSrc[k] = true
		}
		sub := truth.Restrict(func(sid event.SnippetID) bool { return inSrc[sid] })
		f := eval.Pairwise(pred, sub).F1
		weighted += f * float64(len(pred))
		total += float64(len(pred))
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}

// Table renders rows as a fixed-width text table. Cells are stringers or
// plain values formatted with %v; float64 gets 3 decimals.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]any
}

// Fprint writes the table to w.
func (t *Table) Fprint(w io.Writer) {
	cells := make([][]string, 0, len(t.Rows)+1)
	cells = append(cells, t.Headers)
	for _, r := range t.Rows {
		row := make([]string, len(r))
		for i, c := range r {
			switch v := c.(type) {
			case float64:
				row[i] = fmt.Sprintf("%.3f", v)
			case time.Duration:
				row[i] = v.Round(time.Microsecond).String()
			default:
				row[i] = fmt.Sprintf("%v", c)
			}
		}
		cells = append(cells, row)
	}
	widths := make([]int, len(t.Headers))
	for _, row := range cells {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	}
	for ri, row := range cells {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
		if ri == 0 {
			total := len(widths)*2 - 2
			for _, wd := range widths {
				total += wd
			}
			fmt.Fprintln(w, strings.Repeat("-", total))
		}
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
