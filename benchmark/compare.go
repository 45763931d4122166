package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Compare verdicts.
const (
	cmpBetter     = "better"
	cmpWorse      = "worse"
	cmpUnchanged  = "unchanged"
	cmpUnresolved = "unresolved"
)

// spread is a run's own quartile distance as a share of its value.
func (m metricValue) spread() float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Value
}

// compareMetric judges b against a for one metric of one workload. The
// change is the share of a by which b is worse (positive) or better
// (negative). When either run's own spread exceeds the bound the pair
// cannot tell a move of that size from noise: unresolved, not unchanged.
// setup_s is exempt, as it is from the driver's spread rule: its three
// samples are three `go build`s, the first of which meets a colder
// cache, and the quartiles of three values are their extremes.
func compareMetric(a, b metricValue, def metricDef) (verdict string, change float64) {
	if a.Value != 0 {
		change = (b.Value - a.Value) / a.Value
	}
	if def.Better == "higher" {
		change = -change
	}
	switch {
	case def.Name != "setup_s" && max(a.spread(), b.spread()) > def.Bound:
		return cmpUnresolved, change
	case change > def.Bound:
		return cmpWorse, change
	case change < -def.Bound:
		return cmpBetter, change
	}
	return cmpUnchanged, change
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// untraced indexes a document's end-to-end runs by workload.
func untraced(d *document) map[string]*runDoc {
	runs := make(map[string]*runDoc)
	for i := range d.Runs {
		if !d.Runs[i].Traced {
			runs[d.Runs[i].Workload] = &d.Runs[i]
		}
	}
	return runs
}

// compareFiles reads two run documents and compares them.
func compareFiles(w io.Writer, spec *benchmarkSpec, pathA, pathB string) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	return compareDocuments(w, spec, a, b)
}

// compareDocuments prints one row per (end-to-end metric, workload),
// then whether the exact rows agree. It returns an error when any row
// is worse, unresolved, unequal or present on one side only — the A/A
// check of two runs of one commit must come back clean, and it must not
// come back clean because there was nothing to compare. Runs of
// different seed or length measured different work: they are refused,
// not compared.
func compareDocuments(w io.Writer, spec *benchmarkSpec, a, b *document) error {
	runsA, runsB := untraced(a), untraced(b)
	if len(runsA) == 0 {
		return fmt.Errorf("the first document has no end-to-end run")
	}
	for name, ra := range runsA {
		if rb := runsB[name]; rb != nil && (ra.Seed != rb.Seed || ra.Seconds != rb.Seconds) {
			return fmt.Errorf("%s: seed %d for %g s against seed %d for %g s: not the same inputs and length", name, ra.Seed, ra.Seconds, rb.Seed, rb.Seconds)
		}
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tchange\tbound\tverdict")
	bad := 0
	for i := range a.Runs {
		ra := &a.Runs[i]
		if ra.Traced {
			continue
		}
		rb := runsB[ra.Workload]
		if rb == nil {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\t\tmissing from b\n", ra.Workload)
			bad++
			continue
		}
		for _, def := range spec.EndToEnd {
			ma, okA := ra.Metrics[def.Name]
			mb, okB := rb.Metrics[def.Name]
			if !okA || !okB {
				side := "a"
				if okA {
					side = "b"
				}
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\tmissing from %s\n", ra.Workload, def.Name, side)
				bad++
				continue
			}
			verdict, change := compareMetric(ma, mb, def)
			if verdict == cmpWorse || verdict == cmpUnresolved {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%s\n",
				ra.Workload, def.Name, ma.Value, mb.Value, def.Unit, 100*change, 100*def.Bound, verdict)
		}
		exact := ra.TransitionsTotal == rb.TransitionsTotal &&
			ra.VerdictOKShare == rb.VerdictOKShare && ra.FailedShare == rb.FailedShare
		verdict := "equal"
		if !exact {
			verdict = "DIFFERENT"
			bad++
		}
		fmt.Fprintf(tw, "%s\ttransitions_total, verdict_ok_share, failed_share\t%d, %g, %g\t%d, %g, %g\t\t\texact\t%s\n",
			ra.Workload, ra.TransitionsTotal, ra.VerdictOKShare, ra.FailedShare,
			rb.TransitionsTotal, rb.VerdictOKShare, rb.FailedShare, verdict)
	}
	for i := range b.Runs {
		if rb := &b.Runs[i]; !rb.Traced && runsA[rb.Workload] == nil {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\t\tmissing from a\n", rb.Workload)
			bad++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are worse, unresolved, different or missing", bad)
	}
	return nil
}
