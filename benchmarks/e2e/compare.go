package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// printReport prints every metric of a result file by name with its
// unit: end-to-end medians with quartiles and N over the timed runs, the
// derived ratios, then the traced pass's per-layer table.
func printReport(out io.Writer, f *resultFile) {
	fmt.Fprintf(out, "\n%s  seed %d, %d timed runs of %g s per workload, %d workers on %d CPUs (%s)\n",
		f.Label, f.Seed, f.Runs, f.Seconds, f.Host.Workers, f.Host.NProc, f.Host.CPU)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tmedian\tq1\tq3\tspread\tN\tunit\n")
	for _, w := range f.Workloads {
		for _, d := range endToEnd {
			v := w.values(d.Name)
			q1, m, q3 := quartiles(v)
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.4f\t%.2f%%\t%d\t%s\n", w.Name, d.Name, m, q1, q3, 100*spread(v), len(v), d.Unit)
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.4f\t\t\t\t%d\tratio\n", w.Name, w.failedShare(), len(w.Timed))
	}
	tw.Flush()

	iter := func(name string) float64 {
		if w := f.workload(name); w != nil {
			return median(w.values("iter_ms"))
		}
		return 0
	}
	if u, r := iter("alexnet_undiv"), iter("alexnet_wr"); u > 0 && r > 0 {
		fmt.Fprintf(out, "\nwr_speedup = iter_ms(alexnet_undiv) / iter_ms(alexnet_wr) = %.1f / %.1f = %.3f (reported, not gated)\n", u, r, u/r)
	}

	fmt.Fprintf(out, "\nper-layer metrics (traced pass, seed %d)\n", f.Seed)
	tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "layer\tmetric\tunit")
	for _, w := range f.Workloads {
		fmt.Fprintf(tw, "\t%s", w.Name)
	}
	fmt.Fprintln(tw)
	for _, d := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s", d.Layer, d.Name, d.Unit)
		for _, w := range f.Workloads {
			fmt.Fprintf(tw, "\t%.4g", w.Traced.Metrics[d.Name].Value)
		}
		fmt.Fprintln(tw)
	}
	// The harness's own tracing overhead, against the untraced median.
	fmt.Fprintf(tw, "bench\tbench.trace_ratio\tratio")
	for _, w := range f.Workloads {
		ratio := 0.0
		if m := median(w.values("iter_ms")); m > 0 {
			ratio = w.Traced.Metrics["bench.traced_iter_ms"].Value / m
		}
		fmt.Fprintf(tw, "\t%.4g", ratio)
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

// Verdicts of one end-to-end comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges b against a for a metric where direction says which way
// is better. The median may worsen by at most bound. When either side's
// run-to-run spread exceeds the bound and the two sets of runs overlap,
// the runs cannot tell: unresolved, never "unchanged".
func verdict(a, b []float64, better string, bound float64) string {
	sign := 1.0 // lower is better: worse means larger
	if better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	worse := sign * (mb - ma) / math.Abs(ma)
	if ma == 0 {
		worse = sign * (mb - ma)
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	overlap := minB <= maxA && minA <= maxB
	if overlap && math.Max(spread(a), spread(b)) > bound {
		return verdictUnresolved
	}
	if worse > bound {
		return verdictRegressed
	}
	return verdictOK
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// compareFiles prints, per workload and end-to-end metric, both medians
// with quartiles and N and a verdict, then checks that everything exact
// is identical. It reports whether anything regressed.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "a = %s (%s, commit %s)\nb = %s (%s, commit %s)\n\n", pathA, a.Label, a.Host.Commit, pathB, b.Label, b.Host.Commit)
	if a.Host.Oversubscribed || b.Host.Oversubscribed {
		fmt.Fprintln(out, "warning: a set was measured with fewer CPUs than workers; its timings are not comparable")
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta median [q1, q3] N\tb median [q1, q3] N\tchange\tbound\tverdict\n")
	var planLines []string
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			return false, fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		for _, d := range endToEnd {
			va, vb := wa.values(d.Name), wb.values(d.Name)
			v := verdict(va, vb, d.Better, d.Bound)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%.0f%%\t%s\n", wa.Name, d.Name, summary(va), summary(vb),
				100*(median(vb)-median(va))/median(va), 100*d.Bound, v)
		}
		fa, fb := wa.failedShare(), wb.failedShare()
		v := verdictOK
		if fb > fa {
			v, regressed = verdictRegressed, true
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.4f\t%.4f\t\tany increase\t%s\n", wa.Name, fa, fb, v)

		if wa.PlanHash != wb.PlanHash {
			planLines = append(planLines, fmt.Sprintf("%s: plan changed: plan hash %s -> %s", wa.Name, wa.PlanHash, wb.PlanHash))
		}
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			if x, y := wa.Traced.Metrics[d.Name].Value, wb.Traced.Metrics[d.Name].Value; x != y {
				planLines = append(planLines, fmt.Sprintf("%s: plan changed: %s %v -> %v %s", wa.Name, d.Name, x, y, d.Unit))
			}
		}
	}
	tw.Flush()
	fmt.Fprintln(out)
	if len(planLines) == 0 {
		fmt.Fprintln(out, "plans: every exact count and plan hash is identical")
	}
	for _, l := range planLines {
		fmt.Fprintln(out, l)
	}
	return regressed, nil
}

func summary(v []float64) string {
	q1, m, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", m, q1, q3, len(v))
}
