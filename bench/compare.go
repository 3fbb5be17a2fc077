package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadSide reads one side of a comparison: a results file, or several
// given as a comma-separated list of paths and globs. Each file is one
// run; with several, the statistics are taken over the runs' medians,
// which is the run-to-run spread the bounds are stated against.
func loadSide(arg string) ([]resultsFile, error) {
	var docs []resultsFile
	for _, pattern := range strings.Split(arg, ",") {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("%s: no such results file", pattern)
		}
		sort.Strings(paths)
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			var doc resultsFile
			if err := json.Unmarshal(data, &doc); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			docs = append(docs, doc)
		}
	}
	return docs, nil
}

// sideSummary condenses one (workload, metric) across a side's runs. A
// single run falls back on the quartiles of its own reps.
func sideSummary(docs []resultsFile, workload, metric string) (summary, bool) {
	var medians []float64
	var only summary
	for _, doc := range docs {
		if wr := doc.Workloads[workload]; wr != nil {
			if m, ok := wr.EndToEnd[metric]; ok {
				medians = append(medians, m.Median)
				only = m.summary
			}
		}
	}
	switch len(medians) {
	case 0:
		return summary{}, false
	case 1:
		return only, true
	}
	return summarize(medians), true
}

// verdict judges B against A for one metric by the relative move of the
// median in the metric's bad direction.
func verdict(a, b summary, d metricDef) string {
	worsening := (b.Median - a.Median) / math.Abs(a.Median)
	if d.Better == "higher" {
		worsening = -worsening
	}
	spread := max(a.spread(), b.spread())
	switch {
	case spread > d.Bound:
		return "unresolved"
	case worsening > d.Bound:
		return "worse"
	case -worsening > max(spread, 1e-9):
		return "better"
	}
	return "within"
}

// compareResults prints one row per (workload, end-to-end metric) and
// returns how many were judged worse.
func compareResults(w io.Writer, argA, argB string) (worse int, err error) {
	a, err := loadSide(argA)
	if err != nil {
		return 0, err
	}
	b, err := loadSide(argB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A: %d file(s), rev %s   B: %d file(s), rev %s\n", len(a), a[0].Provenance.GitRev, len(b), b[0].Provenance.GitRev)
	fmt.Fprintf(w, "%-18s %-16s %-5s %12s %24s %12s %24s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "delta", "bound", "verdict")
	unresolved := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			sa, okA := sideSummary(a, wl.Name, d.Name)
			sb, okB := sideSummary(b, wl.Name, d.Name)
			if !okA || !okB {
				continue
			}
			v := verdict(sa, sb, d)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			delta := (sb.Median - sa.Median) / math.Abs(sa.Median) * 100
			fmt.Fprintf(w, "%-18s %-16s %-5s %12.6g %24s %12.6g %24s %+7.2f%% %5.0f%%  %s\n",
				wl.Name, d.Name, d.Unit, sa.Median, fmt.Sprintf("%.5g..%.5g", sa.Q1, sa.Q3),
				sb.Median, fmt.Sprintf("%.5g..%.5g", sb.Q1, sb.Q3), delta, d.Bound*100, v)
		}
		// fail_share has an absolute bound of zero: any more failures is worse.
		fa, na, da := failures(a, wl.Name)
		fb, nb, db := failures(b, wl.Name)
		if na+nb == 0 {
			continue
		}
		v := "within"
		if fb > fa {
			v = "worse"
			worse++
		}
		fmt.Fprintf(w, "%-18s %-16s %-5s %12s %24s %12s %24s %8s %6s  %s\n", wl.Name, "fail_share", "",
			fmt.Sprintf("%d/%d", fa, na), "", fmt.Sprintf("%d/%d", fb, nb), "", "", "0", v)
		if da != "" || db != "" {
			same := "identical"
			if da != db {
				same = "DIFFERENT: simulated counters moved"
				worse++
			}
			fmt.Fprintf(w, "%-18s %-16s %s\n", wl.Name, "digest", same)
		}
	}
	fmt.Fprintf(w, "%d worse, %d unresolved\n", worse, unresolved)
	return worse, nil
}

// failures totals a side's failed and attempted operations on a workload
// and returns its counter digest (the last run's; they must all agree).
func failures(docs []resultsFile, workload string) (failed, attempted int, digest string) {
	for _, doc := range docs {
		if wr := doc.Workloads[workload]; wr != nil {
			failed += wr.Failed
			attempted += wr.Attempted
			digest = wr.Digest
		}
	}
	return failed, attempted, digest
}
