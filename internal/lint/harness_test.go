package lint

import (
	"bufio"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"flep/internal/lint/analysis"
	"flep/internal/lint/loader"
)

// The fixture harness mirrors analysistest: fixture sources under
// testdata/src/<importPath> carry `// want `+"`regexp`"+`` comments on
// the lines where findings are expected; a finding with no matching
// want, or a want with no matching finding, fails the test. The regexp
// is matched against "<category> <message>", so wants can pin the
// category. testdata is invisible to the go tool, so the deliberate
// violations in fixtures never break `go build ./...`. Fixtures are
// GOPATH-layout packages (loader.LoadFixture); a real package one needs
// is stubbed beside them, as sim and obs are.

// wantLitRE extracts the regexp literals after a want marker —
// backtick-quoted (preferred: no double escaping) or double-quoted.
var wantLitRE = regexp.MustCompile("`[^`]*`" + `|"(?:[^"\\]|\\.)*"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadExpectations scans every fixture source in dir for want comments.
func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	var exps []*expectation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("open fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			lits := wantLitRE.FindAllString(text[i+len("// want "):], -1)
			if len(lits) == 0 {
				t.Errorf("%s:%d: want comment without a regexp literal", path, line)
				continue
			}
			for _, lit := range lits {
				var pat string
				if lit[0] == '`' {
					pat = strings.Trim(lit, "`")
				} else {
					pat, err = strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s:%d: bad want literal %s: %v", path, line, lit, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, line, pat, err)
				}
				exps = append(exps, &expectation{file: path, line: line, re: re})
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatalf("scan fixture: %v", err)
		}
	}
	return exps
}

// fixtureCallees names the fixture packages a fixture calls into that
// must be analyzed beside it: lockorder closes acquisitions over calls
// only between packages it has seen.
var fixtureCallees = map[string][]string{
	"flep/internal/cluster/fixturelockpair": {"flep/internal/server/fixtureshard"},
}

// runFixture loads and analyzes one fixture package, with its callees.
func runFixture(t *testing.T, importPath string, analyzers ...*analysis.Analyzer) ([]Finding, string) {
	t.Helper()
	root, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var pkgs []*loader.Package
	for _, path := range append([]string{importPath}, fixtureCallees[importPath]...) {
		pkg, err := loader.LoadFixture(fset, root, path, analysis.NewInfo)
		if err != nil {
			t.Fatalf("load fixture %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	findings, err := RunPackages(fset, pkgs, analyzers)
	if err != nil {
		t.Fatalf("analyze fixture %s: %v", importPath, err)
	}
	return findings, pkgs[0].Dir
}

// checkFixture runs the analyzers over the fixture and reconciles
// findings against the want comments, one-to-one.
func checkFixture(t *testing.T, importPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	findings, dir := runFixture(t, importPath, analyzers...)
	exps := loadExpectations(t, dir)
	for _, f := range findings {
		target := f.Category + " " + f.Message
		matched := false
		for _, e := range exps {
			if !e.hit && e.file == f.Pos.Filename && e.line == f.Pos.Line && e.re.MatchString(target) {
				e.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, e := range exps {
		if !e.hit {
			t.Errorf("missing finding at %s:%d matching %s", e.file, e.line, e.re)
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "flep/internal/sim/fixturedet", DeterminismAnalyzer)
}

// TestDeterminismOutOfScope proves the analyzer stays silent at the
// daemon boundary, where wall-clock reads are legal.
func TestDeterminismOutOfScope(t *testing.T) {
	checkFixture(t, "fixtures/boundary", DeterminismAnalyzer)
}

func TestMapOrderFixture(t *testing.T) {
	checkFixture(t, "fixtures/maporder", MapOrderAnalyzer)
}

func TestLoopPurityEngineFixture(t *testing.T) {
	checkFixture(t, "flep/internal/flepruntime/fixtureloop", LoopPurityAnalyzer)
}

func TestLoopPuritySharedLockFixture(t *testing.T) {
	checkFixture(t, "flep/internal/server/fixturesrv", LoopPurityAnalyzer)
}

// The DAG-iteration fixtures cover the dependency-table patterns the
// model-graph subsystem introduced: releasing stages by ranging a map
// (maporder) and walking the table from the loop under a handler-shared
// lock with bare channel sends (looppurity).
func TestDagIterationMapOrderFixture(t *testing.T) {
	checkFixture(t, "fixtures/dagiter", MapOrderAnalyzer)
}

func TestDagIterationLoopPurityFixture(t *testing.T) {
	checkFixture(t, "flep/internal/server/fixturedag", LoopPurityAnalyzer)
}

func TestLockDisciplineFixture(t *testing.T) {
	checkFixture(t, "fixtures/lockheld", LockDisciplineAnalyzer)
}

func TestMetricHygieneFixture(t *testing.T) {
	checkFixture(t, "fixtures/metrics", MetricHygieneAnalyzer)
}

// TestAllowAnnotations asserts the escape hatch's exact semantics on
// the fixtureallow package: expectations live here because a malformed
// annotation cannot carry a want comment on its own line.
func TestAllowAnnotations(t *testing.T) {
	findings, _ := runFixture(t, "flep/internal/sim/fixtureallow", DeterminismAnalyzer)
	type key struct {
		analyzer, category string
		msgPart            string
	}
	wants := []key{
		{"flepvet", "allowform", "missing its reason"},
		{"determinism", "wallclock", "time.Now"}, // MissingReason's finding survives
		{"flepvet", "allowform", "unknown category notacategory"},
		{"determinism", "wallclock", "time.Now"}, // UnknownCategory's finding survives
		{"flepvet", "allowform", "allow wallclock suppresses no finding"},
	}
	if len(findings) != len(wants) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(wants), findings)
	}
	for _, w := range wants {
		found := false
		for _, f := range findings {
			if f.Analyzer == w.analyzer && f.Category == w.category && strings.Contains(f.Message, w.msgPart) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %s/%s finding containing %q in:\n%v", w.analyzer, w.category, w.msgPart, findings)
		}
	}
	// Allowed and SameLine must be fully suppressed: no finding may sit
	// on their lines (17 and 22 would drift; assert by message count
	// instead — exactly two wallclock findings for four time.Now calls).
	wallclock := 0
	for _, f := range findings {
		if f.Category == "wallclock" {
			wallclock++
		}
	}
	if wallclock != 2 {
		t.Errorf("got %d unsuppressed wallclock findings, want 2 (Allowed and SameLine must be suppressed):\n%v", wallclock, findings)
	}
}

func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, "fixtures/lockorder", LockOrderAnalyzer)
}

// TestLockOrderContractFixture proves the declared gateway/shard
// contract pair fires across the internal/cluster and internal/server
// subtrees, including through a helper.
func TestLockOrderContractFixture(t *testing.T) {
	checkFixture(t, "flep/internal/cluster/fixturelockpair", LockOrderAnalyzer)
}
