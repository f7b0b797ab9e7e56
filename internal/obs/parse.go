package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its rendered label
// set (possibly ""), and the value.
type Sample struct {
	Name   string
	Labels string // canonical {k="v",...} rendering, "" when unlabeled
	Value  float64
}

// Key returns the name+labels identity used by Snapshot maps.
func (s Sample) Key() string { return s.Name + s.Labels }

// Snapshot is a parsed scrape: metric key (name plus rendered labels) →
// value. Histograms appear as their _bucket/_sum/_count series.
type Snapshot map[string]float64

// Get returns the value for a bare metric name or full key, and whether
// it was present.
func (s Snapshot) Get(key string) (float64, bool) {
	v, ok := s[key]
	return v, ok
}

// SumFamily adds up every sample whose name (ignoring labels) equals
// name: the family-wide total of a labeled counter.
func (s Snapshot) SumFamily(name string) float64 {
	total := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// SumMatching adds up every sample of the named family whose label set
// contains all of the given label pairs. SumMatching("x_total", "kind",
// "primary") sums x_total{kind="primary",...} across any remaining labels
// (such as a fleet's device label); with no pairs it equals SumFamily.
func (s Snapshot) SumMatching(name string, labelPairs ...string) float64 {
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pairs %v", labelPairs))
	}
	want := make([]string, 0, len(labelPairs)/2)
	for i := 0; i+1 < len(labelPairs); i += 2 {
		want = append(want, fmt.Sprintf("%s=%q", labelPairs[i], labelPairs[i+1]))
	}
	total := 0.0
	for k, v := range s {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		have := strings.Split(strings.TrimSuffix(strings.TrimPrefix(k[len(name):], "{"), "}"), ",")
		matched := true
		for _, w := range want {
			found := false
			for _, h := range have {
				if h == w {
					found = true
					break
				}
			}
			if !found {
				matched = false
				break
			}
		}
		if matched {
			total += v
		}
	}
	return total
}

// Delta returns after − before for the key (missing keys read as 0).
func Delta(before, after Snapshot, key string) float64 {
	return after[key] - before[key]
}

// ParseText parses Prometheus text exposition (the subset WritePrometheus
// emits: HELP/TYPE comments and simple sample lines) into a Snapshot. It
// is as strict as the reference parser about families: a second HELP or
// TYPE line for a name, or a line of a declared family after another
// family began, is an error, as is a second sample of one series (a name
// and a label set) or a malformed sample line. Other comments and blanks
// are skipped.
func ParseText(r io.Reader) (Snapshot, error) {
	out := Snapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	cur := ""                       // the family whose lines are being read
	declared := map[string]string{} // family → the header kinds seen for it
	// enter moves to the family a line belongs to.
	enter := func(fam string) error {
		if fam != cur && declared[fam] != "" {
			return fmt.Errorf("obs: family %s resumes after %s began", fam, cur)
		}
		cur = fam
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' {
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "HELP" || f[1] == "TYPE") {
				if strings.Contains(declared[f[2]], f[1]) {
					return nil, fmt.Errorf("obs: second %s line for metric name %s", f[1], f[2])
				}
				if err := enter(f[2]); err != nil {
					return nil, err
				}
				declared[f[2]] += f[1]
			}
			continue
		}
		sample, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		// A histogram's series carry suffixes; an undeclared name is a
		// family of its own, which nothing here holds to an order.
		fam := sample.Name
		if declared[fam] == "" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(fam, suffix); ok && declared[base] != "" {
					fam = base
					break
				}
			}
		}
		if err := enter(fam); err != nil {
			return nil, err
		}
		key := sample.Key()
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("obs: second sample for series %s", key)
		}
		out[key] = sample.Value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseLine splits `name{labels} value` (labels optional).
func parseLine(line string) (Sample, error) {
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return Sample{}, fmt.Errorf("obs: malformed sample line %q", line)
	}
	s := Sample{Name: line[:nameEnd]}
	rest := line[nameEnd:]
	if rest[0] == '{' {
		end := strings.Index(rest, "}")
		if end < 0 {
			return Sample{}, fmt.Errorf("obs: unterminated labels in %q", line)
		}
		// `{}` is no label set and a trailing comma no label, so a series
		// has one key however it is written.
		switch inner := strings.TrimRight(rest[1:end], ","); {
		case len(inner) == end-1 && inner != "":
			s.Labels = rest[:end+1]
		case inner != "":
			s.Labels = "{" + inner + "}"
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp after the value is legal Prometheus; keep the first field.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := parseValue(rest)
	if err != nil {
		return Sample{}, fmt.Errorf("obs: bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}
