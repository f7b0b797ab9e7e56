package model

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestPresetsValidateAndAreFreshCopies(t *testing.T) {
	presets := Presets()
	if len(presets) != 3 {
		t.Fatalf("Presets() = %d graphs, want 3", len(presets))
	}
	names := []string{}
	for _, g := range presets {
		if err := g.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", g.Name, err)
		}
		names = append(names, g.Name)
	}
	if !reflect.DeepEqual(names, []string{"bert", "diamond", "resnet"}) {
		t.Fatalf("presets not sorted by name: %v", names)
	}
	// Mutating a returned preset must not alias the next call's copy.
	g, err := ByName("resnet")
	if err != nil {
		t.Fatal(err)
	}
	g.DeadlineMS = 99
	g.Stages[0].Bench = "mutated"
	g2, _ := ByName("resnet")
	if g2.DeadlineMS != 0 || g2.Stages[0].Bench == "mutated" {
		t.Fatalf("ByName returned an aliased preset: %+v", g2)
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Fatalf("unknown preset error = %v", err)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := &Graph{
		Name: "loop",
		Stages: []Stage{
			{Name: "a", Bench: "VA", After: []string{"c"}},
			{Name: "b", Bench: "VA", After: []string{"a"}},
			{Name: "c", Bench: "VA", After: []string{"b"}},
		},
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "dependency cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
	// The error names the first unemitted stage in declaration order.
	if !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("cycle error does not name stage a: %v", err)
	}
}

func TestValidateRejectsUnknownPrerequisite(t *testing.T) {
	g := &Graph{
		Name: "dangling",
		Stages: []Stage{
			{Name: "a", Bench: "VA"},
			{Name: "b", Bench: "VA", After: []string{"ghost"}},
		},
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), `unknown prerequisite "ghost"`) {
		t.Fatalf("unknown prerequisite not detected: %v", err)
	}
}

func TestValidateRejectsMalformedShapes(t *testing.T) {
	cases := []struct {
		name string
		g    Graph
		want string
	}{
		{"no name", Graph{Stages: []Stage{{Name: "a", Bench: "VA"}}}, "no name"},
		{"no stages", Graph{Name: "x"}, "no stages"},
		{"negative deadline", Graph{Name: "x", DeadlineMS: -1, Stages: []Stage{{Name: "a", Bench: "VA"}}}, "negative deadline"},
		{"duplicate stage", Graph{Name: "x", Stages: []Stage{{Name: "a", Bench: "VA"}, {Name: "a", Bench: "VA"}}}, "twice"},
		{"self dependency", Graph{Name: "x", Stages: []Stage{{Name: "a", Bench: "VA", After: []string{"a"}}}}, "depends on itself"},
		{"duplicate prereq", Graph{Name: "x", Stages: []Stage{{Name: "a", Bench: "VA"}, {Name: "b", Bench: "VA", After: []string{"a", "a"}}}}, "twice"},
		{"bad bench", Graph{Name: "x", Stages: []Stage{{Name: "a", Bench: "NOPE"}}}, "NOPE"},
		{"bad class", Graph{Name: "x", Stages: []Stage{{Name: "a", Bench: "VA", Class: "huge"}}}, "unknown input class"},
	}
	for _, tc := range cases {
		err := tc.g.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestDeadlineRequiresTerminalSink(t *testing.T) {
	// "right" is not an ancestor of the last stage, so a graph deadline
	// would not cover it.
	g := &Graph{
		Name:       "loose",
		DeadlineMS: 10,
		Stages: []Stage{
			{Name: "pre", Bench: "VA"},
			{Name: "right", Bench: "VA", After: []string{"pre"}},
			{Name: "post", Bench: "VA", After: []string{"pre"}},
		},
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), `does not depend on stage "right"`) {
		t.Fatalf("non-sink terminal accepted with deadline: %v", err)
	}
	// Without the deadline the same shape is fine.
	g.DeadlineMS = 0
	if err := g.Validate(); err != nil {
		t.Fatalf("best-effort non-sink graph rejected: %v", err)
	}
	// And every preset becomes deadline-eligible: its terminal depends on
	// every other stage.
	for _, p := range Presets() {
		p.DeadlineMS = 5
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s not deadline-eligible: %v", p.Name, err)
		}
	}
}

func TestTopoOrderDeterministic(t *testing.T) {
	g, err := ByName("bert")
	if err != nil {
		t.Fatal(err)
	}
	first, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("TopoOrder not deterministic: %v vs %v", first, again)
		}
	}
	// Kahn with declaration-order tie-break on bert is exactly the
	// declaration order (embed, att0..att3, merge, ffn, out).
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("TopoOrder = %v, want %v", first, want)
	}
}

func TestParseRoundTrip(t *testing.T) {
	g, err := ByName("diamond")
	if err != nil {
		t.Fatal(err)
	}
	g.DeadlineMS = 7
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(g, got) {
		t.Fatalf("round trip mangled the graph:\n%+v\nvs\n%+v", g, got)
	}
	if _, err := Parse([]byte(`{"name":"x","stages":[{"name":"a","bench":"VA","after":["b"]}]}`)); err == nil {
		t.Fatal("Parse accepted a graph with an unknown prerequisite")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Fatal("Parse accepted non-JSON")
	}
}

func TestBenchmarksAndTerminal(t *testing.T) {
	g, _ := ByName("bert")
	if got := g.Benchmarks(); !reflect.DeepEqual(got, []string{"MM", "SPMV", "VA"}) {
		t.Fatalf("Benchmarks() = %v", got)
	}
	if g.Terminal().Name != "out" {
		t.Fatalf("Terminal() = %q, want out", g.Terminal().Name)
	}
	var empty Graph
	if empty.Terminal() != nil {
		t.Fatal("Terminal() on empty graph should be nil")
	}
}

func TestMaxStagesAndMaxAfterEnforced(t *testing.T) {
	big := Graph{Name: "big"}
	for i := 0; i <= MaxStages; i++ {
		big.Stages = append(big.Stages, Stage{Name: strings.Repeat("s", 1) + string(rune('a'+i%26)) + strings.Repeat("x", i/26+1), Bench: "VA"})
	}
	if err := big.Validate(); err == nil || !strings.Contains(err.Error(), "max") {
		t.Fatalf("oversized graph accepted: %v", err)
	}
	wide := Graph{Name: "wide", Stages: []Stage{}}
	var afters []string
	for i := 0; i < MaxAfter+1; i++ {
		name := string(rune('a' + i))
		wide.Stages = append(wide.Stages, Stage{Name: name, Bench: "VA"})
		afters = append(afters, name)
	}
	wide.Stages = append(wide.Stages, Stage{Name: "sink", Bench: "VA", After: afters})
	if err := wide.Validate(); err == nil || !strings.Contains(err.Error(), "prerequisites") {
		t.Fatalf("over-wide stage accepted: %v", err)
	}
}

// FuzzModelParse checks that a graph Parse accepts has a topological order
// of every stage, each after its prerequisites, and that its encoding
// parses again to a graph with the same encoding.
func FuzzModelParse(f *testing.F) {
	for _, g := range Presets() {
		for _, deadline := range []int{0, 50} {
			g.DeadlineMS = deadline
			data, err := json.Marshal(g)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Parse(data)
		if err != nil {
			return
		}
		order, err := g.TopoOrder()
		if err != nil || len(order) != len(g.Stages) {
			t.Fatalf("accepted graph: TopoOrder = %v, %v for %d stages", order, err, len(g.Stages))
		}
		placed := map[string]bool{}
		for _, i := range order {
			st := g.Stages[i]
			if placed[st.Name] {
				t.Fatalf("stage %q ordered twice", st.Name)
			}
			for _, dep := range st.After {
				if !placed[dep] {
					t.Fatalf("stage %q ordered before its prerequisite %q", st.Name, dep)
				}
			}
			placed[st.Name] = true
		}
		again, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := Parse(again)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", again, err)
		}
		if third, _ := json.Marshal(g2); string(third) != string(again) {
			t.Fatalf("re-parse changed the graph:\n%s\nvs\n%s", again, third)
		}
	})
}
