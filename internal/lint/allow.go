package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"

	"flep/internal/lint/analysis"
)

// The escape hatch. A finding is deliberate — the server boundary reads
// the wall clock, a send is provably non-blocking — exactly when a
// comment says so:
//
//	//flepvet:allow wallclock -- flepd stamps real arrival times at the boundary
//
// The annotation names one or more categories (comma-separated) and
// MUST carry a reason after ` -- `; an annotation without a reason is
// itself a diagnostic, so the suite's acceptance bar ("every allow has
// a reason") is machine-checked rather than reviewed. An annotation
// suppresses matching findings on its own line and on the line below
// it (comment-above-statement style).
var allowRE = regexp.MustCompile(`^//flepvet:allow\s+([a-z][a-z0-9_,]*)\s*(?:--\s*(.*))?$`)

// allowEntry is one parsed annotation.
type allowEntry struct {
	categories map[string]bool
	pos        token.Position
	used       bool // it suppressed a finding, or was itself diagnosed
}

// allowIndex holds every annotation of the packages analyzed.
type allowIndex struct {
	entries []*allowEntry
}

// suppressed reports whether a finding at pos with the category is
// covered by an annotation on its line or the line above, and marks
// that annotation used.
func (ai *allowIndex) suppressed(pos token.Position, category string) bool {
	for _, e := range ai.entries {
		if e.pos.Filename == pos.Filename && (e.pos.Line == pos.Line || e.pos.Line == pos.Line-1) && e.categories[category] {
			e.used = true
			return true
		}
	}
	return false
}

// collect parses every flepvet:allow annotation in the files and
// diagnoses malformed ones (missing reason, unknown category).
func (ai *allowIndex) collect(fset *token.FileSet, files []*ast.File, known map[string]bool) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//flepvet:allow") {
					continue
				}
				m := allowRE.FindStringSubmatch(text)
				if m == nil {
					diags = append(diags, analysis.Diagnostic{
						Pos: c.Pos(), Category: "allowform",
						Message: "malformed flepvet:allow annotation (want `//flepvet:allow <category>[,<category>] -- reason`)",
					})
					continue
				}
				if strings.TrimSpace(m[2]) == "" {
					diags = append(diags, analysis.Diagnostic{
						Pos: c.Pos(), Category: "allowform",
						Message: "flepvet:allow annotation is missing its reason (append ` -- <why this is safe>`)",
					})
					continue
				}
				e := &allowEntry{categories: map[string]bool{}, pos: fset.Position(c.Pos())}
				for _, cat := range strings.Split(m[1], ",") {
					if cat == "" {
						continue
					}
					if !known[cat] {
						diags = append(diags, analysis.Diagnostic{
							Pos: c.Pos(), Category: "allowform",
							Message: "flepvet:allow names unknown category " + cat,
						})
						e.used = true
						continue
					}
					e.categories[cat] = true
				}
				ai.entries = append(ai.entries, e)
			}
		}
	}
	return diags
}

// unused reports every well-formed annotation that suppressed nothing:
// a stale allow would hide the next finding on its line unseen.
func (ai *allowIndex) unused() []Finding {
	var out []Finding
	for _, e := range ai.entries {
		if !e.used {
			out = append(out, Finding{Pos: e.pos, Analyzer: "flepvet", Category: "allowform",
				Message: "flepvet:allow " + strings.Join(sortedKeys(e.categories), ",") + " suppresses no finding; delete it"})
		}
	}
	return out
}
