// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 and §5) and the extensions built on it. Each experiment is
// one Grid: its points, one cell function, the columns it prints, and the
// paper's claims about it as checked data. cmd/vrio-experiments and the
// repository's benchmark harness both drive this registry.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"vrio/internal/core"
	"vrio/internal/sim"
)

// Result is one regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Runner produces a Result. quick trades precision for speed (used by unit
// tests and -quick runs); full runs use the durations EXPERIMENTS.md
// reports.
type Runner func(quick bool) Result

// grids is the registry, in the order IDs lists and the transcript prints.
var grids = []*Grid{
	ablationMTU, ablationRxRing, ablationRetransmit, ablationSteering,
	fig14, fig15, fig16a, fig16b,
	fig1, table1, table2, fig3, tablerack,
	migration, failover, energy,
	fabricScaling, fabricTrace, faultTolerance, mqScaling,
	table3, fig5, fig7, fig8, fig9, fig10, fig11, table4, fig12, fig13, heterogeneity,
	rackScaling, volRebuild,
}

func lookup(id string) *Grid {
	for _, g := range grids {
		if g.ID == id {
			return g
		}
	}
	return nil
}

// IDs lists experiment ids in registration order.
func IDs() []string {
	var out []string
	for _, g := range grids {
		out = append(out, g.ID)
	}
	return out
}

// Get returns a serial runner for id, or nil.
func Get(id string) Runner {
	if lookup(id) == nil {
		return nil
	}
	return func(quick bool) Result { return run([]string{id}, quick, 1)[0].Result() }
}

// RunAllParallel executes every experiment with cells fanned out across a
// bounded worker pool, and returns Results byte-identical to a serial run's
// (workers 1), in registration order. workers <= 0 means GOMAXPROCS.
func RunAllParallel(quick bool, workers int) []Result {
	return RunParallel(IDs(), quick, workers)
}

// RunParallel executes the named experiments (unknown ids are skipped),
// scheduling the independent cells of ALL of them onto one shared pool of
// workers. Each cell owns a private Testbed and engine, so cells never
// share mutable state; determinism is per cell, which makes the combined
// output independent of scheduling order. Results come in the order ids
// were given.
func RunParallel(ids []string, quick bool, workers int) []Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return results(run(ids, quick, workers))
}

// run plans the named grids and executes every cell of all of them on one
// pool of workers, each cell writing its own slot of its table. The pool
// sees one flat job list, so cells of cheap and expensive experiments
// interleave; with one worker the cells run in point order.
func run(ids []string, quick bool, workers int) []*Table {
	var tabs []*Table
	var jobs []func()
	for _, id := range ids {
		if g := lookup(id); g != nil {
			t := g.plan(quick)
			tabs = append(tabs, t)
			for i := range t.Points {
				jobs = append(jobs, func() { t.Out[i] = t.Cell(quick, t.Points[i]) })
			}
		}
	}
	ch := make(chan func())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				j()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return tabs
}

func results(tabs []*Table) []Result {
	var out []Result
	for _, t := range tabs {
		out = append(out, t.Result())
	}
	return out
}

// Format renders a Result as an aligned text table.
func Format(r Result) string {
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			if i < len(widths) {
				s += fmt.Sprintf("%-*s  ", widths[i], c)
			} else {
				s += c + "  "
			}
		}
		return s + "\n"
	}
	out += line(r.Header)
	for _, row := range r.Rows {
		out += line(row)
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// --- shared helpers ---

// durations returns (warmup, measure) scaled for quick mode.
func durations(quick bool, warmup, measure sim.Time) (sim.Time, sim.Time) {
	if quick {
		return warmup / 4, measure / 5
	}
	return warmup, measure
}

// models lists model names as axis values.
func models(ms ...core.ModelName) []string {
	var out []string
	for _, m := range ms {
		out = append(out, string(m))
	}
	return out
}

// netModels is the Figure 7/9/12 model set, in plot order.
var netModels = models(core.ModelOptimum, core.ModelVRIO, core.ModelElvis, core.ModelBaseline)

// fig5Models adds the no-poll ablation (Figure 5's set).
var fig5Models = models(core.ModelOptimum, core.ModelVRIO, core.ModelElvis,
	core.ModelVRIONoPoll, core.ModelBaseline)

func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func d(v float64) string   { return fmt.Sprintf("%d", int64(v)) }
func pct(v float64) string { return fmt.Sprintf("%+.0f%%", v*100) }
