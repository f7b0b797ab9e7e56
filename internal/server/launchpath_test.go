package server

import (
	"context"
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
