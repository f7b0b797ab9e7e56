package obs

import (
	"bufio"
	"io"
	"sort"
	"strings"
)

// Exposition assembles one valid text exposition out of several (a
// fleet's shards, a cluster's nodes): the format allows a family one HELP
// and one TYPE line and wants its samples in one group, so concatenated
// sources are not an exposition. Each family is written once, in
// first-seen order, under the first header seen for it, with every
// source's samples beneath. The zero value is empty.
type Exposition struct {
	names []string
	// lines holds, per family, its HELP line, its TYPE line (either may be
	// missing: ""), then its samples.
	lines map[string][]string
}

// Add files one source's lines under their families, giving every sample
// the label pair key="value" as its first label (none when key is empty):
// what tells the sources' series apart. SumMatching-style label-subset
// queries are order-independent, so the placement does not matter.
func (e *Exposition) Add(r io.Reader, key, value string) error {
	pair := ""
	if key != "" {
		pair = key + `="` + escapeLabelValue(value) + `"`
	}
	if e.lines == nil {
		e.lines = map[string][]string{}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	cur := "" // the family of the header last read
	enter := func(name string) {
		if cur = name; e.lines[name] == nil {
			e.lines[name], e.names = make([]string, 2), append(e.names, name)
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' {
			// Other comments have no family to travel with.
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "HELP" || f[1] == "TYPE") {
				enter(f[2])
				kind := 0
				if f[1] == "TYPE" {
					kind = 1
				}
				if e.lines[cur][kind] == "" {
					e.lines[cur][kind] = line
				}
			}
			continue
		}
		// A sample belongs to the header above it (a histogram's series
		// carry suffixes), or with none to a family of its own name.
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if cur == "" || name != cur && !strings.HasPrefix(name, cur+"_") {
			enter(name)
		}
		if pair != "" {
			line = injectLabel(line, pair)
		}
		e.lines[cur] = append(e.lines[cur], line)
	}
	return sc.Err()
}

// Write renders the assembled exposition.
func (e *Exposition) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range e.names {
		for _, line := range e.lines[name] {
			if line != "" {
				bw.WriteString(line) // a write error sticks and Flush returns it
				bw.WriteByte('\n')
			}
		}
	}
	return bw.Flush()
}

// RelabelText copies the exposition r to w with one label pair added to
// every sample: an Exposition of a single source.
func RelabelText(w io.Writer, r io.Reader, key, value string) error {
	var e Exposition
	if err := e.Add(r, key, value); err != nil {
		return err
	}
	return e.Write(w)
}

// injectLabel splices a rendered `key="value"` pair into one sample
// line as its first label. Metric names cannot contain '{' or ' ', so
// whichever comes first ends the name; everything after is preserved
// verbatim (existing labels, value, optional timestamp).
func injectLabel(line, pair string) string {
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return line // not a sample line; leave untouched
	}
	name, rest := line[:nameEnd], line[nameEnd:]
	if rest[0] == '{' {
		if rest[1] == '}' { // degenerate empty label set
			return name + "{" + pair + "}" + rest[2:]
		}
		return name + "{" + pair + "," + rest[1:]
	}
	return name + "{" + pair + "}" + rest
}

// escapeLabelValue escapes a label value per the Prometheus text format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// LabelValues returns the distinct values the named label takes across
// the family's samples, sorted. A scrape relabeled per node answers
// "which nodes are in this exposition?" with
// LabelValues("flep_server_launches_total", "node").
func (s Snapshot) LabelValues(family, key string) []string {
	seen := map[string]bool{}
	prefix := family + "{"
	for k := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		inner := strings.TrimSuffix(k[len(prefix):], "}")
		for _, part := range strings.Split(inner, ",") {
			if rest, ok := strings.CutPrefix(part, key+`="`); ok {
				seen[strings.TrimSuffix(rest, `"`)] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
