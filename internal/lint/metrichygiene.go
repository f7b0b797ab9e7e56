package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"flep/internal/lint/analysis"
)

// MetricHygieneAnalyzer enforces the obs registry's naming and
// registration contract:
//
//   - metric names must be string literals matching flep_[a-z_]+ —
//     Grafana dashboards and the PromQL in DESIGN.md reference names
//     textually, so a computed name is an invisible dashboard break
//     (category metricname);
//   - label keys must be [a-z_]+ literals and label values must be
//     literals too — an unvalidated dynamic value (session ID, error
//     string) is a cardinality explosion (category metriclabel;
//     annotate when the value is drawn from a small closed set);
//   - a metric family must be registered coherently: one instrument
//     kind and one help string per name, and no two sites registering
//     the identical (name, labels) series (category metricdup, checked
//     across packages via the Finish hook).
var MetricHygieneAnalyzer = &analysis.Analyzer{
	Name:       "metrichygiene",
	Doc:        "enforce obs metric naming, literal labels, and one-kind-one-help families",
	Categories: []string{"metricname", "metriclabel", "metricdup"},
	Run:        runMetricHygiene,
	Finish:     finishMetricHygiene,
}

var (
	metricNameRE = regexp.MustCompile(`^flep_[a-z_]+$`)
	labelKeyRE   = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
)

// registryMethods maps the obs.Registry registration methods to the
// argument index where label pairs start (after name, help, and any
// mid arguments: fn for GaugeFunc, bounds for Histogram).
var registryMethods = map[string]int{
	"Counter":   2,
	"Gauge":     2,
	"GaugeFunc": 3,
	"Histogram": 3,
}

// metricReg is one registration site, collected for the cross-package
// family check. Labels is the rendered literal pair list; LabelsOK is
// false when any part was non-literal, which disables the exact-series
// dup check for that site (the metriclabel diagnostic already fired
// there).
type metricReg struct {
	Name     string
	Kind     string
	Help     string
	Labels   string
	LabelsOK bool
	Pos      token.Pos
}

func runMetricHygiene(pass *analysis.Pass) (any, error) {
	var regs []metricReg
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// *obs.Registry, matched by package name so a fixture's stub
			// obs package counts too.
			labelStart, ok := registryMethods[sel.Sel.Name]
			if !ok || !strings.HasSuffix("/"+namedKey(pass.TypesInfo.TypeOf(sel.X)), "/obs.Registry") {
				return true
			}
			if len(call.Args) < labelStart {
				return true // won't compile anyway
			}

			reg := metricReg{Kind: sel.Sel.Name, Pos: call.Pos()}

			// Name: a literal matching the flep_ namespace.
			if name, ok := stringLit(call.Args[0]); ok {
				reg.Name = name
				if !metricNameRE.MatchString(name) {
					pass.Reportf(call.Args[0].Pos(), "metricname",
						"metric name %q does not match flep_[a-z_]+; dashboards key on the flep_ namespace", name)
				}
			} else {
				pass.Reportf(call.Args[0].Pos(), "metricname",
					"metric name passed to %s must be a string literal, not a computed value", sel.Sel.Name)
			}
			reg.Help, _ = stringLit(call.Args[1])

			// Labels: alternating literal key/value pairs.
			if call.Ellipsis.IsValid() {
				pass.Reportf(call.Ellipsis, "metriclabel",
					"labels splatted from a slice cannot be checked for literal keys/values; spell the pairs out")
				regs = append(regs, reg)
				return true
			}
			labelArgs := call.Args[labelStart:]
			var pairs []string
			literal := true
			for i, arg := range labelArgs {
				s, isLit := stringLit(arg)
				if i%2 == 0 { // key
					if !isLit {
						literal = false
						pass.Reportf(arg.Pos(), "metriclabel",
							"label key must be a string literal")
					} else if !labelKeyRE.MatchString(s) {
						pass.Reportf(arg.Pos(), "metriclabel",
							"label key %q is not a valid prometheus label name ([a-z_][a-z0-9_]*)", s)
					}
				} else if !isLit { // value
					literal = false
					pass.Reportf(arg.Pos(), "metriclabel",
						"label value is not a literal; dynamic values explode series cardinality (annotate if drawn from a small closed set)")
				}
				if isLit {
					pairs = append(pairs, s)
				}
			}
			if literal {
				reg.Labels = strings.Join(pairs, "\x00")
				reg.LabelsOK = true
			}
			regs = append(regs, reg)
			return true
		})
	}
	if len(regs) == 0 {
		return nil, nil
	}
	return regs, nil
}

// stringLit resolves a string constant expression (literals and
// constant idents both qualify — both are greppable).
func stringLit(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			s, err := strconv.Unquote(e.Value)
			return s, err == nil
		}
	}
	return "", false
}

// finishMetricHygiene runs after every package: a family (one name)
// must have a single instrument kind, a single help string, and no
// exactly-duplicated (name, labels) registration from distinct sites.
func finishMetricHygiene(results []analysis.Result, report func(analysis.Diagnostic)) {
	families := map[string][]metricReg{}
	for _, res := range results {
		regs, ok := res.Value.([]metricReg)
		if !ok {
			continue
		}
		for _, r := range regs {
			if r.Name == "" {
				continue // non-literal name already diagnosed
			}
			families[r.Name] = append(families[r.Name], r)
		}
	}
	var names []string
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		regs := families[name]
		sort.Slice(regs, func(i, j int) bool { return regs[i].Pos < regs[j].Pos })
		first := regs[0]
		series := map[string]token.Pos{}
		if first.LabelsOK {
			series[first.Labels] = first.Pos
		}
		for _, r := range regs[1:] {
			if r.Kind != first.Kind {
				report(analysis.Diagnostic{Pos: r.Pos, Category: "metricdup",
					Message: "metric " + name + " registered as " + r.Kind +
						" but first registered as " + first.Kind + "; one kind per family"})
				continue
			}
			if r.Help != first.Help {
				report(analysis.Diagnostic{Pos: r.Pos, Category: "metricdup",
					Message: "metric " + name + " registered with a different help string than its first registration; prometheus exposition allows one HELP per family"})
			}
			if !r.LabelsOK {
				continue // dynamic labels: exact-series check not applicable
			}
			if _, dup := series[r.Labels]; dup {
				report(analysis.Diagnostic{Pos: r.Pos, Category: "metricdup",
					Message: "metric series " + name + " with identical labels is registered at more than one site; register once and share the instrument"})
				continue
			}
			series[r.Labels] = r.Pos
		}
	}
}
