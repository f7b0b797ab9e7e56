package replay

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Matrix is the what-if configuration space: the advisor replays the
// trace once per cell of the cross product and compares the outcomes.
// Zero-valued axes collapse to a single "as recorded" point.
type Matrix struct {
	// Policies to compare (default: hpf, ffs, fifo — the paper's two
	// FLEP policies against the non-preemptive baseline).
	Policies []string
	// Devices axis (default: the trace's recorded device count).
	Devices []int
	// Ls sweeps the amortizing-factor override; 0 means the offline-tuned
	// L (default: [0]).
	Ls []int
	// SpatialSMs sweeps the paper's spa_P: 0 keeps the recorded spatial
	// setting, a positive value enables spatial preemption with that many
	// yielded SMs, -1 forces spatial off (default: [0]).
	SpatialSMs []int
	// Seed drives every cell's replay (placement tie-breaks).
	Seed int64
}

// Validate rejects axis values that name no configuration: a negative
// device count or amortizing factor. (A negative SpatialSMs is "off".)
func (m Matrix) Validate() error {
	for _, v := range append(append([]int(nil), m.Devices...), m.Ls...) {
		if v < 0 {
			return fmt.Errorf("replay: what-if axis value %d: a device count or L cannot be negative (0 = as recorded, tuned)", v)
		}
	}
	return nil
}

// resolved settles every axis value to the configuration it names: empty
// axes take their defaults, a device count of 0 becomes the trace's
// recorded count, and every negative SpatialSMs is -1.
func (m Matrix) resolved(t *Trace) Matrix {
	if len(m.Policies) == 0 {
		m.Policies = []string{"hpf", "ffs", "fifo"}
		// A trace carrying SLO deadlines makes EDF a serious contender;
		// fold it into the default comparison set.
		if traceHasDeadlines(t) {
			m.Policies = append([]string{"edf"}, m.Policies...)
		}
	}
	for _, axis := range []*[]int{&m.Devices, &m.Ls, &m.SpatialSMs} {
		// An empty axis is the one point 0, "as recorded"; the caller's
		// slice is not written to.
		*axis = append([]int{}, *axis...)
		if len(*axis) == 0 {
			*axis = []int{0}
		}
	}
	for i, d := range m.Devices {
		if d == 0 {
			m.Devices[i] = max(t.Header.Devices, 1)
		}
	}
	for i, spa := range m.SpatialSMs {
		m.SpatialSMs[i] = max(spa, -1)
	}
	return m
}

// Cell is one evaluated what-if configuration.
type Cell struct {
	Name    string   `json:"name"`
	Policy  string   `json:"policy"`
	Devices int      `json:"devices"`
	L       int      `json:"l,omitempty"`
	Spatial int      `json:"spatial_sms,omitempty"` // -1 = forced off
	Score   float64  `json:"score"`
	Summary *Summary `json:"summary"`
}

// Comparison is the advisor's report: every cell, ranked, plus the
// findings prose (including the HPF-vs-FFS crossover when it holds).
type Comparison struct {
	Cells    []Cell   `json:"cells"`
	Ranking  []string `json:"ranking"`
	Findings []string `json:"findings"`
	// Recommendation names the top-ranked cell and why.
	Recommendation string `json:"recommendation"`
}

func cellName(policy string, devices, l, spa int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/d%d", policy, devices)
	if l > 0 {
		fmt.Fprintf(&b, "/L%d", l)
	}
	switch {
	case spa > 0:
		fmt.Fprintf(&b, "/spa%d", spa)
	case spa < 0:
		b.WriteString("/spa-off")
	}
	return b.String()
}

// WhatIf replays the trace across the matrix and ranks the outcomes.
// The offline artifacts are built once (by NewReplayer) and shared, so
// an N-cell matrix costs N replays, not N offline phases.
func (rp *Replayer) WhatIf(m Matrix) (*Comparison, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m = m.resolved(rp.trace)
	var cells []Cell
	var cfgs []ReplayConfig
	named := map[string]bool{}
	for _, policy := range m.Policies {
		for _, nd := range m.Devices {
			for _, l := range m.Ls {
				for _, spa := range m.SpatialSMs {
					cell := Cell{Name: cellName(policy, nd, l, spa), Policy: policy, Devices: nd, L: l, Spatial: spa}
					if named[cell.Name] {
						continue // two axis points that resolved to one configuration
					}
					named[cell.Name] = true
					cfg := ReplayConfig{Policy: policy, Spa: spa, Devices: nd, L: l, Seed: m.Seed}
					// Every cell must be able to start before any runs: a
					// misspelt last policy should not cost the others' replays.
					opt, _ := rp.effective(cfg)
					if _, err := rp.sys.NewStack(opt, nil, nil, nil); err != nil {
						return nil, fmt.Errorf("replay: what-if cell %s: %w", cell.Name, err)
					}
					cells, cfgs = append(cells, cell), append(cfgs, cfg)
				}
			}
		}
	}
	for i := range cells {
		sum, err := rp.Run(cfgs[i])
		if err != nil {
			return nil, fmt.Errorf("replay: what-if cell %s: %w", cells[i].Name, err)
		}
		cells[i].Summary = sum
	}

	score(cells)
	cmp := &Comparison{Cells: cells}
	ranked := make([]*Cell, len(cells))
	for i := range cells {
		ranked[i] = &cells[i]
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].Score != ranked[j].Score {
			return ranked[i].Score > ranked[j].Score
		}
		return ranked[i].Name < ranked[j].Name
	})
	for _, c := range ranked {
		cmp.Ranking = append(cmp.Ranking, c.Name)
	}
	cmp.Findings = findings(cells, m)
	top := ranked[0]
	cmp.Recommendation = fmt.Sprintf(
		"%s — best combined score %.3f (throughput %.3f/s, high-priority ANTT %.3f, fairness %.3f)",
		top.Name, top.Score, top.Summary.ThroughputPerSec, top.Summary.HighPrioANTT, top.Summary.Fairness)
	if top.Summary.SLOTracked > 0 {
		cmp.Recommendation += fmt.Sprintf(", SLO attainment %.1f%%", 100*top.Summary.SLOAttainRate)
	}
	return cmp, nil
}

// traceHasDeadlines reports whether any record carries an SLO budget.
func traceHasDeadlines(t *Trace) bool {
	for _, r := range t.Records {
		if r.DeadlineNS > 0 {
			return true
		}
	}
	return false
}

// score assigns each cell a weighted normalized score: throughput up,
// high-priority ANTT down, fairness up — and, when the trace carries
// SLO deadlines, attainment up as a fourth axis (nothing is worth much
// if the latency tier is blowing its deadlines). Min-max normalization
// across the matrix keeps the weights meaningful regardless of workload
// scale; deadline-free traces score exactly as before.
func score(cells []Cell) {
	if len(cells) == 0 {
		return
	}
	norm := func(get func(*Summary) float64, invert bool) []float64 {
		lo, hi := get(cells[0].Summary), get(cells[0].Summary)
		for i := range cells {
			v := get(cells[i].Summary)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		out := make([]float64, len(cells))
		for i := range cells {
			n := 0.5
			if hi > lo {
				n = (get(cells[i].Summary) - lo) / (hi - lo)
			}
			if invert {
				n = 1 - n
			}
			out[i] = n
		}
		return out
	}
	tp := norm(func(s *Summary) float64 { return s.ThroughputPerSec }, false)
	antt := norm(func(s *Summary) float64 { return s.HighPrioANTT }, true)
	fair := norm(func(s *Summary) float64 { return s.Fairness }, false)
	hasSLO := false
	for i := range cells {
		if cells[i].Summary.SLOTracked > 0 {
			hasSLO = true
			break
		}
	}
	if !hasSLO {
		for i := range cells {
			cells[i].Score = 0.40*tp[i] + 0.40*antt[i] + 0.20*fair[i]
		}
		return
	}
	slo := norm(func(s *Summary) float64 { return s.SLOAttainRate }, false)
	for i := range cells {
		cells[i].Score = 0.30*tp[i] + 0.30*antt[i] + 0.15*fair[i] + 0.25*slo[i]
	}
}

// findings derives the comparative prose. The base combo (first device
// count, first L, first spa axis value) anchors policy-vs-policy
// comparisons; device scaling is reported per policy.
func findings(cells []Cell, m Matrix) []string {
	find := func(policy string, devices, l, spa int) *Summary {
		for i := range cells {
			c := &cells[i]
			if c.Policy == policy && c.Devices == devices && c.L == l && c.Spatial == spa {
				return c.Summary
			}
		}
		return nil
	}
	var out []string
	d0, l0, s0 := m.Devices[0], m.Ls[0], m.SpatialSMs[0]
	hpf := find("hpf", d0, l0, s0)
	ffs := find("ffs", d0, l0, s0)
	fifo := find("fifo", d0, l0, s0)
	edf := find("edf", d0, l0, s0)

	if edf != nil && hpf != nil && edf.SLOTracked > 0 && hpf.SLOTracked > 0 {
		if edf.SLOAttainRate > hpf.SLOAttainRate {
			out = append(out, fmt.Sprintf(
				"EDF attains %.1f%% of SLO deadlines vs HPF's %.1f%% (%d/%d vs %d/%d): ordering by deadline instead of priority rescues launches HPF would let slip past their budget.",
				100*edf.SLOAttainRate, 100*hpf.SLOAttainRate,
				edf.SLOAttained, edf.SLOTracked, hpf.SLOAttained, hpf.SLOTracked))
		} else if edf.SLOAttainRate < hpf.SLOAttainRate {
			out = append(out, fmt.Sprintf(
				"HPF attains %.1f%% of SLO deadlines vs EDF's %.1f%%: this trace's deadlines align with priority order, so deadline-first buys nothing here.",
				100*hpf.SLOAttainRate, 100*edf.SLOAttainRate))
		} else {
			out = append(out, fmt.Sprintf(
				"EDF and HPF tie on SLO attainment (%.1f%%): deadlines are loose enough that either ordering meets them.",
				100*edf.SLOAttainRate))
		}
	}

	if hpf != nil && fifo != nil && fifo.HighPrioANTT > 0 && hpf.HighPrioANTT > 0 {
		if hpf.HighPrioANTT < fifo.HighPrioANTT {
			out = append(out, fmt.Sprintf(
				"HPF cuts high-priority (p%d) ANTT %.2fx vs the non-preemptive baseline (%.3f vs %.3f): preemption lets latency-critical launches jump long co-runners.",
				hpf.HighPriority, fifo.HighPrioANTT/hpf.HighPrioANTT, hpf.HighPrioANTT, fifo.HighPrioANTT))
		} else {
			out = append(out, fmt.Sprintf(
				"Non-preemptive FIFO matches or beats HPF on high-priority ANTT here (%.3f vs %.3f): this trace has too little contention for preemption to pay.",
				fifo.HighPrioANTT, hpf.HighPrioANTT))
		}
	}
	if hpf != nil && ffs != nil && hpf.Fairness > 0 && ffs.Fairness > 0 {
		if ffs.Fairness > hpf.Fairness {
			out = append(out, fmt.Sprintf(
				"FFS is fairer than HPF (Jain %.3f vs %.3f): round-robin epochs spread the slowdown instead of concentrating it on low-priority tenants.",
				ffs.Fairness, hpf.Fairness))
		} else {
			out = append(out, fmt.Sprintf(
				"HPF is at least as fair as FFS on this trace (Jain %.3f vs %.3f).",
				hpf.Fairness, ffs.Fairness))
		}
	}
	if hpf != nil && ffs != nil && fifo != nil &&
		hpf.HighPrioANTT < fifo.HighPrioANTT && ffs.Fairness > hpf.Fairness {
		out = append(out, fmt.Sprintf(
			"Crossover: HPF wins on high-priority responsiveness (ANTT %.3f vs FFS %.3f) while FFS wins on fairness (Jain %.3f vs HPF %.3f) — pick HPF when one tenant is latency-critical, FFS when tenants are peers.",
			hpf.HighPrioANTT, ffs.HighPrioANTT, ffs.Fairness, hpf.Fairness))
	}
	if len(m.Devices) > 1 {
		for _, policy := range m.Policies {
			base := find(policy, m.Devices[0], l0, s0)
			last := find(policy, m.Devices[len(m.Devices)-1], l0, s0)
			if base != nil && last != nil && base.ThroughputPerSec > 0 {
				out = append(out, fmt.Sprintf(
					"%s: %d devices deliver %.2fx the throughput of %d (%.3f/s vs %.3f/s).",
					policy, m.Devices[len(m.Devices)-1],
					last.ThroughputPerSec/base.ThroughputPerSec,
					m.Devices[0], last.ThroughputPerSec, base.ThroughputPerSec))
			}
		}
	}
	if len(m.Ls) > 1 {
		for _, policy := range m.Policies {
			type lp struct {
				l    int
				p99  int64
				antt float64
			}
			var pts []lp
			for _, l := range m.Ls {
				if s := find(policy, d0, l, s0); s != nil {
					pts = append(pts, lp{l, s.DrainP99NS, s.ANTT})
				}
			}
			if len(pts) > 1 {
				out = append(out, fmt.Sprintf(
					"%s: amortizing factor L=%d gives drain p99 %dns (vs %dns at L=%d) — larger L trades preemption latency for solo throughput.",
					policy, pts[len(pts)-1].l, pts[len(pts)-1].p99, pts[0].p99, pts[0].l))
			}
		}
	}
	return out
}

// RenderText writes the comparison as a human-oriented report.
func (c *Comparison) RenderText(w io.Writer) {
	fmt.Fprintf(w, "what-if: %d configurations\n\n", len(c.Cells))
	hasSLO := false
	for i := range c.Cells {
		if c.Cells[i].Summary.SLOTracked > 0 {
			hasSLO = true
			break
		}
	}
	fmt.Fprintf(w, "%-20s %6s %10s %10s %10s %8s %6s",
		"config", "score", "thrpt/s", "hi-ANTT", "fairness", "preempt", "done")
	if hasSLO {
		fmt.Fprintf(w, " %7s", "slo%")
	}
	fmt.Fprintf(w, "\n")
	byName := map[string]*Cell{}
	for i := range c.Cells {
		byName[c.Cells[i].Name] = &c.Cells[i]
	}
	for _, name := range c.Ranking {
		cl := byName[name]
		fmt.Fprintf(w, "%-20s %6.3f %10.3f %10.3f %10.3f %8d %6d",
			cl.Name, cl.Score, cl.Summary.ThroughputPerSec, cl.Summary.HighPrioANTT,
			cl.Summary.Fairness, cl.Summary.Preemptions, cl.Summary.Completed)
		if hasSLO {
			fmt.Fprintf(w, " %7.1f", 100*cl.Summary.SLOAttainRate)
		}
		fmt.Fprintf(w, "\n")
	}
	if len(c.Findings) > 0 {
		fmt.Fprintf(w, "\nfindings:\n")
		for _, f := range c.Findings {
			fmt.Fprintf(w, "  - %s\n", f)
		}
	}
	fmt.Fprintf(w, "\nrecommendation: %s\n", c.Recommendation)
}
