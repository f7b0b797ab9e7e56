package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Outcome is one workload run: what was measured, how many operations
// were attempted and failed, and the verdict of every correctness check.
type Outcome struct {
	Workload  string
	Seed      int64
	Traced    bool
	Values    Values
	Attempted int64
	Failed    int64
	Checks    []Check
	// Digest is a sha256 over the run's simulated results (summaries,
	// tables, or the servers' virtual clocks): information for comparing
	// two runs by eye, never a gate.
	Digest string
	// Notes are free-form lines such as sample counts.
	Notes []string
}

// Correct reports whether every check passed.
func (o *Outcome) Correct() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// reported selects the metrics one run reports to the driver: every
// end_to_end metric for a timed run, every per_layer one (the
// workload-specific metrics included) for a traced run. A metric the
// workload does not produce reads 0.
func (o *Outcome) reported() []Metric {
	var out []Metric
	for _, m := range Metrics() {
		if (m.Kind == EndToEnd) != o.Traced {
			out = append(out, m)
		}
	}
	return out
}

// WriteText prints every measured metric by name with its unit, then the
// checks. Lines start with a tag so a parent flepperf can read them back.
func (o *Outcome) WriteText(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d traced %v\n", o.Workload, o.Seed, o.Traced)
	for _, m := range Metrics() {
		if v, ok := o.Values[m.Name]; ok {
			fmt.Fprintf(w, "metric %s %s %s\n", m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
		}
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	fmt.Fprintf(w, "sim_digest %s\n", o.Digest)
	for _, c := range o.Checks {
		if c.OK {
			fmt.Fprintf(w, "check ok %s\n", c.Name)
		} else {
			fmt.Fprintf(w, "check FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", o.Attempted, o.Failed)
}

// WriteResultLine prints the driver's result object: exactly the keys
// correct, attempted, failed and metrics, on one line.
func (o *Outcome) WriteResultLine(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range o.reported() {
		metrics[m.Name] = value{Value: o.Values[m.Name], Unit: m.Unit}
	}
	attempted := o.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct(), attempted, o.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
