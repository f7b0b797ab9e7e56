// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): Table 1 and Figures 1, 7–17, plus the ablations called
// out in DESIGN.md. Each generator returns a Table of rows matching the
// paper's reported series.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"flep/internal/core"
	"flep/internal/gpu"
)

// Table is one regenerated artifact: an identifier (paper figure/table
// number), column headers, data rows, and notes comparing against the
// paper's reported values.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.1f", float64(v)/float64(time.Microsecond))
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a commentary line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Suite runs the full evaluation against one FLEP system instance. It is
// not safe for concurrent use: Figure13 hands its runs to the Figure14
// called next, as a regeneration in paper order does.
type Suite struct {
	Sys *core.System
	// fair is the FFS study Figure13 ran, until one Figure14 reads it.
	fair []fairRun
}

// NewSuite builds a system, runs the offline phase for all benchmarks, and
// returns the suite.
func NewSuite() (*Suite, error) {
	sys := core.NewSystem(gpu.DefaultParams())
	if err := sys.OfflineAll(); err != nil {
		return nil, err
	}
	return &Suite{Sys: sys}, nil
}

// Generator produces one artifact.
type Generator struct {
	ID  string
	Run func(*Suite) (*Table, error)
}

// Generators lists every table/figure generator in paper order.
func Generators() []Generator {
	return []Generator{
		{"table1", (*Suite).Table1},
		{"fig1", (*Suite).Figure1},
		{"fig7", (*Suite).Figure7},
		{"fig8", (*Suite).Figure8},
		{"fig9", (*Suite).Figure9},
		{"fig10", (*Suite).Figure10},
		{"fig11", (*Suite).Figure11},
		{"fig12", (*Suite).Figure12},
		{"fig13", (*Suite).Figure13},
		{"fig14", (*Suite).Figure14},
		{"fig15", (*Suite).Figure15},
		{"fig16", (*Suite).Figure16},
		{"fig17", (*Suite).Figure17},
		{"ablation-amortize", (*Suite).AblationAmortize},
		{"ablation-leaderpoll", (*Suite).AblationLeaderPoll},
		{"ablation-overheadaware", (*Suite).AblationOverheadAware},
		{"ablation-spatialsize", (*Suite).AblationSpatialSize},
		{"ablation-nvlink", (*Suite).AblationNVLink},
		{"ext-ffs-triplet", (*Suite).ExtFFSTriplet},
	}
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

func x(v float64) string { return fmt.Sprintf("%.1fx", v) }
