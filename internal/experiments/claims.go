package experiments

import (
	"math"

	"flep/internal/kernels"
)

// Claim is one headline value of the paper's evaluation (§6): the column of
// a regenerated artefact it reads, how that column reduces to one number,
// the paper's value, and the inclusive band [Lo, Hi] the regenerated value
// must fall in. A claim whose band is [0, 0] is reported, not enforced.
type Claim struct {
	ID     string // the artefact, as Generators names it
	Column string // the column reduced
	Over   string // when set, each row's Column is divided by its Over first
	Row    string // for "each": the row, by its first cell
	Reduce string // "max", "min", "mean" or "each"
	Paper  float64
	Lo, Hi float64
}

// Claims is the one copy of the paper's §6 headline values, in paper order:
// the generators' notes quote them, the experiments tests enforce their
// bands, and results/claims.txt scores every one against the regenerated
// artefacts. Table 1's amortizing factors come from kernels, each held
// within 35 % of the paper's.
func Claims() []Claim {
	var out []Claim
	for _, b := range kernels.All() {
		l := float64(b.PaperL)
		out = append(out, Claim{ID: "table1", Column: "L", Row: b.Name, Reduce: "each", Paper: l, Lo: l * 0.65, Hi: l * 1.35})
	}
	inf := math.Inf(1)
	return append(out,
		Claim{ID: "fig1", Column: "slowdown", Reduce: "max", Paper: 32.6, Lo: 25, Hi: 42},
		Claim{ID: "fig7", Column: "MAPE", Reduce: "mean", Paper: 6.9, Lo: 4, Hi: 10},
		Claim{ID: "fig7", Column: "MAPE", Reduce: "min", Paper: 2.7},
		Claim{ID: "fig7", Column: "MAPE", Reduce: "max", Paper: 12.2},
		Claim{ID: "fig8", Column: "speedup", Reduce: "mean", Paper: 10.1, Lo: 7, Hi: 17},
		Claim{ID: "fig8", Column: "speedup", Reduce: "max", Paper: 24.2, Lo: 20, Hi: 40},
		Claim{ID: "fig8", Column: "speedup", Reduce: "min", Paper: 4.1, Lo: 2.5, Hi: 7},
		Claim{ID: "fig10", Column: "improvement", Reduce: "mean", Paper: 8, Lo: 5, Hi: 12},
		Claim{ID: "fig11", Column: "degradation", Reduce: "mean", Paper: 5.4, Lo: 0.5, Hi: 9},
		Claim{ID: "fig12", Column: "FLEP-impr", Reduce: "mean", Paper: 6.6, Lo: 4, Hi: 14},
		Claim{ID: "fig12", Column: "FLEP-impr", Reduce: "max", Paper: 20.2, Lo: 15, Hi: inf},
		// Reordering's ANTT improvement, 2.3 %, as a ratio: the reorder-impr
		// column is printed to 0.1x, too coarse to show it.
		Claim{ID: "fig12", Column: "ANTT-MPS", Over: "ANTT-reorder", Reduce: "mean", Paper: 1.023},
		// Weights 2:1: two thirds and one third of GPU time.
		Claim{ID: "fig13", Column: "high-share", Reduce: "mean", Paper: 200.0 / 3, Lo: 52, Hi: 72},
		Claim{ID: "fig13", Column: "low-share", Reduce: "mean", Paper: 100.0 / 3, Lo: 24, Hi: 42},
		// "Close to" the 10 % max_overhead.
		Claim{ID: "fig14", Column: "degradation", Reduce: "mean", Paper: 10, Lo: 4, Hi: 14},
		Claim{ID: "fig15", Column: "reduction", Reduce: "mean", Paper: 31, Lo: 18, Hi: 45},
		Claim{ID: "fig15", Column: "reduction", Reduce: "max", Paper: 41, Lo: 25, Hi: inf},
		Claim{ID: "fig16", Column: "speedup-vs-2SM", Reduce: "max", Paper: 2.22, Lo: 1.2, Hi: 2.6},
		Claim{ID: "fig17", Column: "FLEP-ovh", Reduce: "mean", Paper: 2.5, Lo: 1, Hi: 4},
		Claim{ID: "fig17", Column: "slicing-ovh", Reduce: "mean", Paper: 8, Lo: 5, Hi: 13},
	)
}

// paper is the paper's value of the claim on an artefact's column and
// reduction.
func paper(id, column, reduce string) float64 {
	for _, c := range Claims() {
		if c.ID == id && c.Column == column && c.Reduce == reduce {
			return c.Paper
		}
	}
	panic("experiments: no claim on " + id + " " + column + " " + reduce)
}
