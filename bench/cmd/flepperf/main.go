// Command flepperf is the repository's benchmark: one command that
// measures launches end to end and layer by layer.
//
//	flepperf -workload W -seed N -seconds S -trace 0|1   one run of one workload
//	flepperf -seed N [-runs K] [-out FILE]               every workload, timed and traced, each in a child process
//	flepperf -agree A.json B.json                        compare two result sets against the bounds
//	flepperf -manifest                                   print BENCHMARK.json as the catalogue defines it
//
// A run prints every metric by name with its unit, checks the system's
// outputs, prints one JSON result object as its last line, and exits
// non-zero if any check failed. See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"flep/bench/perf"
)

func main() {
	workload := flag.String("workload", "", "run this one workload in-process (default: all six, each in a child process)")
	seed := flag.Int64("seed", 1, "workload seed: benchmark order, session names, LC/BE assignment, the replay mix")
	seconds := flag.Int("seconds", perf.RunSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	runs := flag.Int("runs", 1, "with no -workload: how many times to run each workload (4 or more give -agree a spread)")
	out := flag.String("out", "", "with no -workload: where to write the result set (default "+perf.SpanDir+"/results-seed<N>.json)")
	agree := flag.Bool("agree", false, "compare two result sets: flepperf -agree A.json B.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the metric catalogue defines it")
	flag.Parse()

	var err error
	switch {
	case *agree:
		err = runAgree(flag.Args())
	case *manifest:
		var data []byte
		if data, err = perf.Manifest(); err == nil {
			_, err = os.Stdout.Write(data)
		}
	case *seconds < 1 || (*trace != 0 && *trace != 1) || *runs < 1:
		err = fmt.Errorf("need -seconds >= 1, -trace 0 or 1, -runs >= 1")
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == 1)
	default:
		err = runAll(*seed, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flepperf:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run that finished but failed a correctness check.
var errIncorrect = fmt.Errorf("a correctness check failed")

func runOne(workload string, seed int64, seconds int, traced bool) error {
	o, err := perf.Run(workload, seed, time.Duration(seconds)*time.Second, traced)
	if err != nil {
		return err
	}
	o.WriteText(os.Stdout)
	if err := o.WriteResultLine(os.Stdout); err != nil {
		return err
	}
	if !o.Correct() {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload, timed then traced, each in a fresh child
// process so no workload inherits another's heap, caches or goroutines.
func runAll(seed int64, seconds, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rs := &perf.ResultSet{Seed: seed, Seconds: seconds, Runs: runs, Correct: true,
		Workloads: map[string]map[string][]float64{}}
	for run := 0; run < runs; run++ {
		for _, w := range perf.Workloads() {
			if rs.Workloads[w.Name] == nil {
				rs.Workloads[w.Name] = map[string][]float64{}
			}
			for _, trace := range []string{"0", "1"} {
				cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", trace)
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				runErr := cmd.Run()
				os.Stdout.Write(stdout.Bytes())
				correct, err := collect(&stdout, trace == "1", rs.Workloads[w.Name])
				if err != nil {
					return fmt.Errorf("%s (trace %s): %w (child: %v)", w.Name, trace, err, runErr)
				}
				if !correct || runErr != nil {
					rs.Correct = false
				}
			}
		}
	}
	if out == "" {
		out = filepath.Join(perf.SpanDir, fmt.Sprintf("results-seed%d.json", seed))
	}
	if err := rs.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("result set written to %s\n", out)
	if !rs.Correct {
		return errIncorrect
	}
	return nil
}

// collect reads a child's "metric <name> <value> <unit>" lines into
// values and returns the "correct" field of its final result object. The
// per-layer metrics are taken from the traced run and everything else
// from the timed run, so a metric both passes print is kept once.
func collect(stdout *bytes.Buffer, traced bool, values map[string][]float64) (bool, error) {
	catalogue := perf.MetricByName()
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		if len(f) >= 3 && f[0] == "metric" {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return false, fmt.Errorf("bad metric line %q", last)
			}
			if (catalogue[f[1]].Kind == perf.Layer) == traced {
				values[f[1]] = append(values[f[1]], v)
			}
		}
	}
	var result struct {
		Correct *bool `json:"correct"`
	}
	if err := json.Unmarshal([]byte(last), &result); err != nil || result.Correct == nil {
		return false, fmt.Errorf("no result object on the last line")
	}
	return *result.Correct, nil
}

func runAgree(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-agree needs two result sets: flepperf -agree A.json B.json")
	}
	a, err := perf.ReadResultSet(args[0])
	if err != nil {
		return err
	}
	b, err := perf.ReadResultSet(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("reference %s (seed %d, %d runs)  changed %s (seed %d, %d runs)\n",
		args[0], a.Seed, a.Runs, args[1], b.Seed, b.Runs)
	if !perf.WriteAgreement(os.Stdout, perf.Compare(a, b)) {
		return fmt.Errorf("the result sets do not agree within the bounds")
	}
	return nil
}
