package hostexec

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	cl "flep/internal/cudalite"
	"flep/internal/gpu"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/policies.golden from this run")

// goldenProgram has a batch host that launches asynchronously and syncs
// between its launches, and a query host that sleeps between two.
const goldenProgram = `
__global__ void scale(float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float acc = a[i];
        for (int r = 0; r < 64; ++r) {
            acc = acc * 1.000001 + 0.5;
        }
        a[i] = acc;
    }
}

__global__ void bump(float* b, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        b[i] = b[i] + 1.0;
    }
}

void run_batch(float* a, int n) {
    scale<<<(n + 255) / 256, 256>>>(a, n);
    scale<<<(n + 255) / 256, 256>>>(a, n);
    flep_sync();
    scale<<<(n + 255) / 256, 256>>>(a, n);
}

void run_query(float* b, int n) {
    bump<<<(n + 255) / 256, 256>>>(b, n);
    flep_sleep(50);
    bump<<<(n + 255) / 256, 256>>>(b, n);
}
`

// TestPolicyTraceGolden pins what a traced two-host session reports
// under every policy: each invocation record, the makespan and the
// device and runtime event log, byte for byte.
func TestPolicyTraceGolden(t *testing.T) {
	p, err := Compile(goldenProgram, gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, policy := range []string{"hpf", "ffs", "edf", "fifo"} {
		rep, err := Run(p, Options{Policy: policy, Trace: true},
			HostProc{Name: "batch", Func: "run_batch", Priority: 1, Async: true,
				Args: []cl.Value{cl.PtrValue(cl.NewFloatBuffer("a", 16), 0), cl.IntValue(1_500_000)}},
			HostProc{Name: "query", Func: "run_query", Priority: 2, At: 20 * time.Microsecond,
				Args: []cl.Value{cl.PtrValue(cl.NewFloatBuffer("b", 2048), 0), cl.IntValue(2048)}},
		)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		fmt.Fprintf(&got, "=== %s\n", policy)
		for _, r := range rep.Invocations {
			fmt.Fprintf(&got, "%s %s grid=%v block=%v submit=%v finish=%v functional=%v\n",
				r.Proc, r.Kernel, r.Grid, r.Block, r.SubmittedAt, r.FinishedAt, r.Functional)
		}
		fmt.Fprintf(&got, "makespan %v\n", rep.Makespan)
		if err := rep.Log.WriteText(&got); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "policies.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("session output differs from %s (%d bytes, want %d)", path, got.Len(), len(want))
	}
}
