package replay

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flep/internal/flepruntime"
)

var updateSummaries = flag.Bool("update", false, "rewrite the summary goldens under testdata/summaries")

// whatIfMix restates flepperf's replay_whatif input (bench/ keeps its own
// frozen copy): a latency-critical tenant with a 3 ms deadline, a
// best-effort tenant of long kernels and a background of trivial launches.
func whatIfMix() []MixTenant {
	return []MixTenant{
		{Client: "lc-spmv", Bench: "SPMV", Class: "small", Priority: 2, Period: 4 * time.Millisecond, Count: 200, Deadline: 3 * time.Millisecond},
		{Client: "be-nn", Bench: "NN", Class: "large", Priority: 1, Period: 40 * time.Millisecond, Count: 20},
		{Client: "bg-va", Bench: "VA", Class: "trivial", Priority: 1, Period: time.Millisecond, Count: 800},
	}
}

// TestSummaryGoldens pins what a replay reports, to the byte: the indented
// Summary JSON and the RenderText report of each case must equal the
// committed golden, generated from the code as it stood before the
// results vocabulary was unified. Any change to how a finished launch is
// normalised, judged or tallied shows up here as a different file.
func TestSummaryGoldens(t *testing.T) {
	type goldenCase struct {
		name string
		rp   *Replayer
		cfg  ReplayConfig
	}
	var cases []goldenCase

	mixTr, err := SynthesizeMix(whatIfMix(), 1)
	if err != nil {
		t.Fatal(err)
	}
	whatIf, err := NewReplayer(mixTr, ReplayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range flepruntime.PolicyNames() {
		for _, d := range []int{1, 2} {
			cases = append(cases, goldenCase{fmt.Sprintf("whatif-%s-x%d", p, d), whatIf,
				ReplayConfig{Policy: p, Devices: d, Seed: 1}})
		}
	}

	models, err := NewReplayer(modelTrace(), ReplayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"edf", "hpf"} {
		cases = append(cases, goldenCase{"model-" + p, models, ReplayConfig{Policy: p, Seed: 11}})
	}

	_, twoTenant := mixReplayer(t)
	cases = append(cases, goldenCase{"mix-hpf-spatial-L8", twoTenant,
		ReplayConfig{Policy: "hpf", Spa: 4, L: 8, Seed: 7}})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sum, err := c.rp.Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.MarshalIndent(sum, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			js = append(js, '\n')
			var text bytes.Buffer
			sum.RenderText(&text)
			for ext, got := range map[string][]byte{".json": js, ".txt": text.Bytes()} {
				path := filepath.Join("testdata", "summaries", c.name+ext)
				if *updateSummaries {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("summary diverged from %s\ngot:\n%s", path, got)
				}
			}
		})
	}
}
