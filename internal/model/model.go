// Package model defines DAG-shaped "model" workloads over the kernel
// benchmark suite: named stages with explicit prerequisite edges, the
// multi-kernel shape real GPU tenants submit (a DNN inference is a chain
// or fan-out of kernels, not one launch). The serving layer admits a
// stage only when its prerequisites have completed, so a graph stresses
// the scheduler in ways single kernels cannot — priority inversion
// through dependencies, head-of-line blocking across the DAG, and
// per-model (not per-kernel) SLOs on the final stage.
//
// Three presets ship with the package: a resnet-shaped layer chain, a
// bert-shaped wide-then-narrow attention block, and a diamond fan-out.
// Custom graphs load from JSON (see Parse) and validate the same way:
// known benchmarks, known prerequisite references, and no cycles.
package model

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"flep/internal/kernels"
)

// Limits on graph shape. They bound the serving daemon's
// pending-dependency table entries per graph, so they are part of the
// wire contract, not just a convenience.
const (
	// MaxStages bounds how many stages one graph may declare.
	MaxStages = 64
	// MaxAfter bounds one stage's prerequisite list.
	MaxAfter = 16
)

// Stage is one kernel launch within a graph: a named node whose After
// edges name the stages that must complete before it may be admitted.
type Stage struct {
	// Name identifies the stage within its graph.
	Name string `json:"name"`
	// Bench names a kernel benchmark (see internal/kernels).
	Bench string `json:"bench"`
	// Class is the input class: "large", "small" (default), or "trivial".
	Class string `json:"class,omitempty"`
	// After lists the names of this stage's prerequisite stages.
	After []string `json:"after,omitempty"`
}

// Graph is one DAG-shaped workload. The declaration order of Stages is
// load-bearing in one place: when DeadlineMS is set, the SLO budget
// applies to the last declared stage, which Validate then requires to
// depend (transitively) on every other stage — so "the last stage
// finished within the deadline" means "the whole model did".
type Graph struct {
	// Name is the model's identity for per-model accounting.
	Name string `json:"name"`
	// DeadlineMS, when positive, is the model's SLO budget: the last
	// stage must finish within this many virtual milliseconds of its
	// admission (which happens when its prerequisites complete).
	DeadlineMS int     `json:"deadline_ms,omitempty"`
	Stages     []Stage `json:"stages"`
}

// Terminal returns the last declared stage: the one a graph deadline
// applies to.
func (g *Graph) Terminal() *Stage {
	if len(g.Stages) == 0 {
		return nil
	}
	return &g.Stages[len(g.Stages)-1]
}

// Benchmarks returns the distinct benchmark names the graph references,
// sorted — what a flepd serving this model must have loaded.
func (g *Graph) Benchmarks() []string {
	seen := map[string]bool{}
	for _, st := range g.Stages {
		seen[st.Bench] = true
	}
	out := make([]string, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Validate checks the graph's static well-formedness: shape limits,
// unique non-empty stage names, loadable benchmarks, parseable input
// classes, prerequisite references that exist, acyclicity, and — when a
// deadline is declared — that the last stage transitively depends on
// every other stage.
func (g *Graph) Validate() error {
	if strings.TrimSpace(g.Name) == "" {
		return fmt.Errorf("model: graph has no name")
	}
	if len(g.Stages) == 0 {
		return fmt.Errorf("model: graph %q has no stages", g.Name)
	}
	if len(g.Stages) > MaxStages {
		return fmt.Errorf("model: graph %q has %d stages (max %d)", g.Name, len(g.Stages), MaxStages)
	}
	if g.DeadlineMS < 0 {
		return fmt.Errorf("model: graph %q has a negative deadline", g.Name)
	}
	idx := map[string]int{}
	for i, st := range g.Stages {
		if strings.TrimSpace(st.Name) == "" {
			return fmt.Errorf("model: graph %q stage %d has no name", g.Name, i)
		}
		if _, dup := idx[st.Name]; dup {
			return fmt.Errorf("model: graph %q declares stage %q twice", g.Name, st.Name)
		}
		idx[st.Name] = i
		if _, err := kernels.ByName(st.Bench); err != nil {
			return fmt.Errorf("model: graph %q stage %q: %w", g.Name, st.Name, err)
		}
		if _, err := kernels.ParseClass(st.Class); err != nil {
			return fmt.Errorf("model: graph %q stage %q: %w", g.Name, st.Name, err)
		}
		if len(st.After) > MaxAfter {
			return fmt.Errorf("model: graph %q stage %q lists %d prerequisites (max %d)",
				g.Name, st.Name, len(st.After), MaxAfter)
		}
		seen := map[string]bool{}
		for _, dep := range st.After {
			if dep == st.Name {
				return fmt.Errorf("model: graph %q stage %q depends on itself", g.Name, st.Name)
			}
			if seen[dep] {
				return fmt.Errorf("model: graph %q stage %q lists prerequisite %q twice", g.Name, st.Name, dep)
			}
			seen[dep] = true
		}
	}
	// Unknown references and cycles, found in one topological pass.
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	if g.DeadlineMS > 0 {
		// The deadline's target must be downstream of everything, or "the
		// last stage met its budget" would not mean the model did.
		last := g.Stages[len(g.Stages)-1].Name
		anc := g.ancestors(last)
		for _, st := range g.Stages {
			if st.Name != last && !anc[st.Name] {
				return fmt.Errorf("model: graph %q carries a deadline but its last stage %q does not depend on stage %q",
					g.Name, last, st.Name)
			}
		}
	}
	_ = order
	return nil
}

// TopoOrder returns the stage indices in a deterministic topological
// order (Kahn's algorithm, declaration order as the tie-break). It
// reports unknown prerequisite references and cycles.
func (g *Graph) TopoOrder() ([]int, error) {
	idx := map[string]int{}
	for i, st := range g.Stages {
		idx[st.Name] = i
	}
	for _, st := range g.Stages {
		for _, dep := range st.After {
			if _, ok := idx[dep]; !ok {
				return nil, fmt.Errorf("model: graph %q stage %q references unknown prerequisite %q",
					g.Name, st.Name, dep)
			}
		}
	}
	emitted := make([]bool, len(g.Stages))
	var order []int
	for len(order) < len(g.Stages) {
		progressed := false
		for i, st := range g.Stages {
			if emitted[i] {
				continue
			}
			ready := true
			for _, dep := range st.After {
				if !emitted[idx[dep]] {
					ready = false
					break
				}
			}
			if ready {
				emitted[i] = true
				order = append(order, i)
				progressed = true
			}
		}
		if !progressed {
			// Everything unemitted participates in (or depends on) a cycle;
			// name the first one in declaration order for the error.
			for i, st := range g.Stages {
				if !emitted[i] {
					return nil, fmt.Errorf("model: graph %q has a dependency cycle through stage %q",
						g.Name, st.Name)
				}
			}
		}
	}
	return order, nil
}

// ancestors returns the set of stage names the named stage transitively
// depends on. Unknown names resolve to an empty set.
func (g *Graph) ancestors(name string) map[string]bool {
	idx := map[string]int{}
	for i, st := range g.Stages {
		idx[st.Name] = i
	}
	out := map[string]bool{}
	stack := []string{name}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		i, ok := idx[n]
		if !ok {
			continue
		}
		for _, dep := range g.Stages[i].After {
			if !out[dep] {
				out[dep] = true
				stack = append(stack, dep)
			}
		}
	}
	return out
}

// Parse decodes and validates a graph from JSON.
func Parse(data []byte) (*Graph, error) {
	var g Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("model: %v", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// Load reads and validates a graph from a JSON file.
func Load(path string) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	g, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("model: %s: %w", path, err)
	}
	return g, nil
}

// Presets returns the built-in model graphs, sorted by name. Each call
// returns fresh copies, so callers may set DeadlineMS without aliasing.
func Presets() []*Graph {
	out := []*Graph{resnet(), bert(), diamond()}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName resolves a preset by name.
func ByName(name string) (*Graph, error) {
	for _, g := range Presets() {
		if g.Name == name {
			return g, nil
		}
	}
	names := make([]string, 0, 3)
	for _, g := range Presets() {
		names = append(names, g.Name)
	}
	return nil, fmt.Errorf("model: unknown preset %q (have %s)", name, strings.Join(names, ", "))
}

// resnet is the layer-chain shape: a stem, a run of residual blocks,
// and a classifier head, each stage strictly after the previous one.
// Chains expose head-of-line blocking: one slow or preempted stage
// stalls the whole model.
func resnet() *Graph {
	return &Graph{
		Name: "resnet",
		Stages: []Stage{
			{Name: "stem", Bench: "NN", Class: "small"},
			{Name: "block1", Bench: "MM", Class: "small", After: []string{"stem"}},
			{Name: "block2", Bench: "MM", Class: "small", After: []string{"block1"}},
			{Name: "block3", Bench: "MM", Class: "small", After: []string{"block2"}},
			{Name: "fc", Bench: "VA", Class: "small", After: []string{"block3"}},
		},
	}
}

// bert is the wide-then-narrow shape: an embedding stage fans out to
// four parallel attention heads, which merge and feed a feed-forward
// tail. The wide middle exercises concurrent admission of sibling
// stages; the narrow merge exercises barrier dependencies.
func bert() *Graph {
	return &Graph{
		Name: "bert",
		Stages: []Stage{
			{Name: "embed", Bench: "VA", Class: "small"},
			{Name: "att0", Bench: "MM", Class: "small", After: []string{"embed"}},
			{Name: "att1", Bench: "MM", Class: "small", After: []string{"embed"}},
			{Name: "att2", Bench: "MM", Class: "small", After: []string{"embed"}},
			{Name: "att3", Bench: "MM", Class: "small", After: []string{"embed"}},
			{Name: "merge", Bench: "SPMV", Class: "small", After: []string{"att0", "att1", "att2", "att3"}},
			{Name: "ffn", Bench: "MM", Class: "small", After: []string{"merge"}},
			{Name: "out", Bench: "VA", Class: "small", After: []string{"ffn"}},
		},
	}
}

// diamond is the minimal fan-out/fan-in: one root, two independent
// branches, one join — the smallest graph where dependency-aware
// admission differs from a chain.
func diamond() *Graph {
	return &Graph{
		Name: "diamond",
		Stages: []Stage{
			{Name: "pre", Bench: "VA", Class: "small"},
			{Name: "left", Bench: "MM", Class: "small", After: []string{"pre"}},
			{Name: "right", Bench: "SPMV", Class: "small", After: []string{"pre"}},
			{Name: "post", Bench: "VA", Class: "small", After: []string{"left", "right"}},
		},
	}
}
