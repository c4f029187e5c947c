package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// readRecords loads the untraced runs of a results.jsonl file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// comparison is one workload × end-to-end metric row.
type comparison struct {
	parentMedian, changeMedian float64
	parentQ, changeQ           [3]float64
	pairs                      int
	won                        float64 // share of pairs the change won
	verdict                    string  // improved, worse or unresolved
	holdsBound                 bool    // no worse than the bound allows
}

// compareMetric applies the benchmark's acceptance rule to one metric:
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ by more than the
//     distance between the parent's quartiles;
//   - worse: the change's median is worse than the parent's by more than
//     the bound, and the parent's spread is within the bound (or every
//     change run is worse than every parent run);
//   - unresolved otherwise.
//
// holdsBound says the change is no worse than the bound allows: true only
// when its median is within the bound and the parent's spread is narrow
// enough to tell, unless every change run beats every parent run.
func compareMetric(d metricDef, parent, change []float64, pairs [][2]float64) comparison {
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	c := comparison{
		parentMedian: median(parent), changeMedian: median(change),
		parentQ: quartiles(parent), changeQ: quartiles(change), pairs: len(pairs),
	}
	wins := 0
	for _, p := range pairs {
		if better(p[1], p[0]) {
			wins++
		}
	}
	if len(pairs) > 0 {
		c.won = float64(wins) / float64(len(pairs))
	}
	pm := math.Abs(c.parentMedian)
	iqr := c.parentQ[2] - c.parentQ[0]
	spread, worseBy := math.Inf(1), 0.0
	if pm > 0 {
		spread = iqr / pm
		worseBy = (c.changeMedian - c.parentMedian) / pm
		if d.Better == "higher" {
			worseBy = -worseBy
		}
	}
	allBetter, allWorse := len(parent) > 0 && len(change) > 0, len(parent) > 0 && len(change) > 0
	for _, cv := range change {
		for _, pv := range parent {
			allBetter = allBetter && better(cv, pv)
			allWorse = allWorse && better(pv, cv)
		}
	}
	switch {
	case len(pairs) > 0 && c.won >= 0.9 && better(c.changeMedian, c.parentMedian) &&
		math.Abs(c.changeMedian-c.parentMedian) > iqr:
		c.verdict = "improved"
	case worseBy > d.Bound && (spread <= d.Bound || allWorse):
		c.verdict = "worse"
	default:
		c.verdict = "unresolved"
	}
	c.holdsBound = allBetter || (worseBy <= d.Bound && spread <= d.Bound)
	return c
}

// runCompare prints one row per workload × end-to-end metric. Runs pair up
// by seed, in file order within a seed.
func runCompare(parentPath, changePath string, w io.Writer) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tpairs won\tverdict\tholds bound")
	for _, wl := range workloads {
		ps, cs := byWorkload(parent, wl.Name), byWorkload(change, wl.Name)
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		for _, d := range endToEnd {
			pv, cv := metricValues(ps, d.Name), metricValues(cs, d.Name)
			c := compareMetric(d, pv, cv, pairBySeed(ps, cs, d.Name))
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%d/%d\t%s\t%v\n",
				wl.Name, d.Name, d.Unit, c.parentMedian, c.parentQ[0], c.parentQ[2],
				c.changeMedian, c.changeQ[0], c.changeQ[2],
				int(math.Round(c.won*float64(c.pairs))), c.pairs, c.verdict, c.holdsBound)
		}
	}
	return tw.Flush()
}

func byWorkload(recs []record, name string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(recs []record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// pairBySeed pairs parent and change runs of the same seed, in order.
func pairBySeed(parent, change []record, name string) [][2]float64 {
	queue := map[uint64][]float64{}
	for _, r := range parent {
		if m, ok := r.Result.Metrics[name]; ok {
			queue[r.Seed] = append(queue[r.Seed], m.Value)
		}
	}
	var pairs [][2]float64
	for _, r := range change {
		m, ok := r.Result.Metrics[name]
		if q := queue[r.Seed]; ok && len(q) > 0 {
			pairs = append(pairs, [2]float64{q[0], m.Value})
			queue[r.Seed] = q[1:]
		}
	}
	return pairs
}
