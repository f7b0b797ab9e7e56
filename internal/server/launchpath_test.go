package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flep/internal/core"
	cl "flep/internal/cudalite"
	"flep/internal/flepruntime"
	"flep/internal/gpu"
	"flep/internal/hostexec"
	"flep/internal/kernels"
	"flep/internal/replay"
	"flep/internal/workload"
)

const twoLaunchProgram = `
__global__ void scale(float* x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        x[i] = a * x[i];
    }
}

void run_scale(float* x, float a, int n) {
    scale<<<(n + 255) / 256, 256>>>(x, a, n);
}
`

// The four drivers below HTTP resolve their policy through one table
// (flepruntime.NewPolicy), so each of them runs a two-kernel workload to
// completion under every name in it, and each refuses an unknown name
// with the same list of accepted ones.
func TestEveryPolicyRunsThroughEveryDriver(t *testing.T) {
	va, _ := kernels.ByName("VA")
	mm, _ := kernels.ByName("MM")
	pair := workload.PriorityPair(va, mm, 0)
	sys := testSystem(t).Clone()

	tr := &replay.Trace{
		Header: replay.Header{Magic: true, TraceVersion: replay.Version, Source: replay.SourceScenario, Benchmarks: []string{"MM", "VA"}},
		Records: []replay.Record{
			{Seq: 1, At: 0, Device: -1, Client: "low", Bench: "MM", Class: "large", Priority: 1},
			{Seq: 2, At: int64(workload.Eps), Device: -1, Client: "high", Bench: "VA", Class: "small", Priority: 2},
		},
	}
	rp, err := replay.NewReplayer(tr, replay.ReplayerOptions{})
	if err != nil {
		t.Fatal(err)
	}

	prog, err := hostexec.Compile(twoLaunchProgram, gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	hostProc := func(prio int) hostexec.HostProc {
		const n = 4096
		return hostexec.HostProc{
			Func: "run_scale", Priority: prio,
			Args: []cl.Value{cl.PtrValue(cl.NewFloatBuffer("x", n), 0), cl.FloatValue(2), cl.IntValue(n)},
		}
	}

	drivers := []struct {
		name string
		run  func(t *testing.T, policy string) (completed int, err error)
	}{
		{"core.RunFLEP", func(t *testing.T, policy string) (int, error) {
			res, err := sys.RunFLEP(pair, core.Options{Policy: policy})
			if err != nil {
				return 0, err
			}
			return len(res.Results), nil
		}},
		{"server.Server", func(t *testing.T, policy string) (int, error) {
			s, err := NewWithSystem(testSystem(t), Config{Policy: policy, Benchmarks: []string{"VA", "MM"}})
			if err != nil {
				return 0, err
			}
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				if err := s.Shutdown(context.Background()); err != nil {
					t.Errorf("shutdown: %v", err)
				}
			}()
			done := 0
			for _, req := range []LaunchRequest{
				{Client: "low", Benchmark: "MM", Class: "large", Priority: 1},
				{Client: "high", Benchmark: "VA", Class: "small", Priority: 2},
			} {
				if code, res := launch(t, ts.URL, req); code == http.StatusOK && res.Err == "" {
					done++
				}
			}
			return done, nil
		}},
		{"replay.Run", func(t *testing.T, policy string) (int, error) {
			sum, err := rp.Run(replay.ReplayConfig{Policy: policy})
			if err != nil {
				return 0, err
			}
			return sum.Completed, nil
		}},
		{"hostexec.Run", func(t *testing.T, policy string) (int, error) {
			rep, err := hostexec.Run(prog, hostexec.Options{Policy: policy}, hostProc(1), hostProc(2))
			if err != nil {
				return 0, err
			}
			return len(rep.Invocations), nil
		}},
	}

	for _, d := range drivers {
		for _, policy := range flepruntime.PolicyNames() {
			if n, err := d.run(t, policy); err != nil || n != 2 {
				t.Errorf("%s under %q: completed %d of 2, err %v", d.name, policy, n, err)
			}
		}
		_, err := d.run(t, "lottery")
		if err == nil || !strings.Contains(err.Error(), `unknown policy "lottery"`) ||
			!strings.Contains(err.Error(), flepruntime.PolicyList()) {
			t.Errorf("%s under a bogus policy: err = %v, want the accepted names %q", d.name, err, flepruntime.PolicyList())
		}
	}
}

// Every driver builds its stack through core.System.NewStack, so each
// refuses a spatial width the device cannot yield — 15 of 15 SMs is
// already one too many, the victim keeps at least one — with the same
// text, and each accepts every width below that.
func TestSpatialWidthIsValidatedByEveryDriver(t *testing.T) {
	va, _ := kernels.ByName("VA")
	mm, _ := kernels.ByName("MM")
	sys := testSystem(t).Clone()
	rp, err := replay.NewReplayer(&replay.Trace{
		Header:  replay.Header{Magic: true, TraceVersion: replay.Version, Source: replay.SourceScenario, Benchmarks: []string{"VA"}},
		Records: []replay.Record{{Seq: 1, Device: -1, Client: "c", Bench: "VA", Class: "small", Priority: 1}},
	}, replay.ReplayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	drivers := []struct {
		name string
		run  func(sms int) error
	}{
		{"core.RunFLEP", func(sms int) error {
			_, err := sys.RunFLEP(workload.PriorityPair(va, mm, 0), core.Options{Spatial: true, SpatialSMs: sms})
			return err
		}},
		{"server.Server", func(sms int) error {
			s, err := NewWithSystem(testSystem(t), Config{Spatial: true, SpatialSMs: sms, Benchmarks: []string{"VA", "MM"}})
			if err == nil {
				err = s.Shutdown(context.Background())
			}
			return err
		}},
		{"replay.Run", func(sms int) error {
			_, err := rp.Run(replay.ReplayConfig{Spa: sms})
			return err
		}},
		{"replay.WhatIf", func(sms int) error {
			_, err := rp.WhatIf(replay.Matrix{Policies: []string{"hpf"}, SpatialSMs: []int{1, sms}})
			return err
		}},
	}
	numSMs := gpu.DefaultParams().Limits.NumSMs
	for _, d := range drivers {
		for _, sms := range []int{1, 4, numSMs - 1} {
			if err := d.run(sms); err != nil {
				t.Errorf("%s with a %d-SM spatial width: %v", d.name, sms, err)
			}
		}
		for _, sms := range []int{numSMs, 99} {
			err := d.run(sms)
			want := fmt.Sprintf("spatial preemption cannot yield %d SMs of a %d-SM device", sms, numSMs)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with a %d-SM spatial width: err = %v, want %q", d.name, sms, err, want)
			}
		}
	}
	// Negative is the replayer's "forced off": spatial stays false and the
	// width is not read.
	if sum, err := rp.Run(replay.ReplayConfig{Spa: -1}); err != nil || sum.Spatial {
		t.Errorf("forced off: spatial %v, err %v", sum != nil && sum.Spatial, err)
	}
}

// Every driver builds its policy through flepruntime.NewPolicy, so each
// refuses an FFS budget that is negative, NaN or infinite and a weight that
// is not a finite positive number — values that reach it from flags and
// trace headers and that FFS would otherwise run on without saying so — and
// each accepts the default budget, a set one and finite positive weights.
func TestSchedulerValuesAreValidatedByEveryDriver(t *testing.T) {
	va, _ := kernels.ByName("VA")
	mm, _ := kernels.ByName("MM")
	sys := testSystem(t).Clone()
	replayer := func(opt core.Options) (*replay.Replayer, error) {
		return replay.NewReplayer(&replay.Trace{
			Header:  replay.Header{Magic: true, TraceVersion: replay.Version, Source: replay.SourceScenario, Options: opt, Benchmarks: []string{"VA"}},
			Records: []replay.Record{{Seq: 1, Device: -1, Client: "c", Bench: "VA", Class: "small", Priority: 2}},
		}, replay.ReplayerOptions{})
	}
	drivers := []struct {
		name string
		run  func(opt core.Options) error
	}{
		{"core.RunFLEP", func(opt core.Options) error {
			_, err := sys.RunFLEP(workload.PriorityPair(va, mm, 0), opt)
			return err
		}},
		{"server.Server", func(opt core.Options) error {
			s, err := NewWithSystem(testSystem(t), Config{Policy: opt.Policy, MaxOverhead: opt.MaxOverhead, Weights: opt.Weights, Benchmarks: []string{"VA", "MM"}})
			if err == nil {
				err = s.Shutdown(context.Background())
			}
			return err
		}},
		{"replay.Run (header)", func(opt core.Options) error {
			rp, err := replayer(opt)
			if err == nil {
				_, err = rp.Run(replay.ReplayConfig{})
			}
			return err
		}},
		{"replay.Run (override)", func(opt core.Options) error {
			rp, err := replayer(core.Options{Policy: opt.Policy, Weights: opt.Weights})
			if err == nil {
				_, err = rp.Run(replay.ReplayConfig{MaxOverhead: opt.MaxOverhead})
			}
			return err
		}},
		{"replay.WhatIf", func(opt core.Options) error {
			rp, err := replayer(opt)
			if err == nil {
				_, err = rp.WhatIf(replay.Matrix{Policies: []string{"ffs"}})
			}
			return err
		}},
	}
	inf, nan := math.Inf(1), math.NaN()
	good := []core.Options{
		{MaxOverhead: 0},
		{MaxOverhead: 0.2},
		{Weights: map[int]float64{1: 1, 2: 2.5}},
	}
	bad := []struct {
		opt  core.Options
		want string
	}{
		{core.Options{MaxOverhead: -1}, "max overhead -1"},
		{core.Options{MaxOverhead: nan}, "max overhead NaN"},
		{core.Options{MaxOverhead: inf}, "max overhead +Inf"},
		{core.Options{Weights: map[int]float64{1: 1, 2: inf}}, "priority 2's weight +Inf"},
		{core.Options{Weights: map[int]float64{1: 1, 2: nan}}, "priority 2's weight NaN"},
		{core.Options{Weights: map[int]float64{1: 1, 2: 0}}, "priority 2's weight 0"},
		{core.Options{Weights: map[int]float64{1: 1, 2: -2}}, "priority 2's weight -2"},
		{core.Options{Weights: map[int]float64{3: -1, 2: 0}}, "priority 2's weight 0"},
	}
	for _, d := range drivers {
		for _, opt := range good {
			opt.Policy = "ffs"
			if err := d.run(opt); err != nil {
				t.Errorf("%s with max overhead %v and weights %v: %v", d.name, opt.MaxOverhead, opt.Weights, err)
			}
		}
		for _, c := range bad {
			c.opt.Policy = "ffs"
			err := d.run(c.opt)
			if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "want a finite") {
				t.Errorf("%s with max overhead %v and weights %v: err = %v, want %q", d.name, c.opt.MaxOverhead, c.opt.Weights, err, c.want)
			}
		}
	}
}
