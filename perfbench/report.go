package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// report collects one run's metric values and correctness tally.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]value
}

type value struct {
	v    float64
	note string // sample count, percentile taken, or why it does not apply
}

func newReport() *report { return &report{values: map[string]value{}} }

func (r *report) set(name string, v float64, note string) {
	r.values[name] = value{v, note}
}

// notApplicable records metrics the workload has no instance of as 0.
func (r *report) notApplicable(why string, names ...string) {
	for _, n := range names {
		r.set(n, 0, "n/a: "+why)
	}
}

// op counts one attempted operation, failed when problem is non-empty.
func (r *report) op(problem string) {
	r.attempted++
	if problem != "" {
		r.failed++
		r.problems = append(r.problems, problem)
	}
}

// metricJSON is one entry of the result line's "metrics" object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one human-readable line per metric, then the result as a
// single JSON object on the last line. It errors if the workload left a
// catalogued metric unset.
func (r *report) print(w io.Writer, defs []metricDef) error {
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-26s %-14.6g %-6s attempted=%d failed=%d\n", "failed_frac", frac, "ratio", r.attempted, r.failed)
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]metricJSON{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		fmt.Fprintf(w, "%-26s %-14.6g %-6s %s\n", d.name, v.v, d.unit, v.note)
		out.Metrics[d.name] = metricJSON{v.v, d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
