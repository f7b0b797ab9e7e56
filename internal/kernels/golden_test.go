package kernels

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cl "flep/internal/cudalite"
	"flep/internal/transform"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenHostSrc is a host program whose launches sit inside for/if/else and
// which launches two kernels, so the host rewrite is pinned both when every
// kernel is transformed and when only one is (the `flepc -kernel` path).
const goldenHostSrc = `
__global__ void scale(float* a, float f, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = a[i] * f;
    }
}

__global__ void fill(int* out, int n) {
    int i = blockIdx.y * gridDim.x + blockIdx.x;
    if (i < n) {
        out[i] = gridDim.y - i;
    }
}

void host(float* a, int* out, int n, int rounds) {
    scale<<<n / 256, 256>>>(a, 2.0, n);
    for (int r = 0; r < rounds; ++r) {
        if (r % 2 == 0) {
            scale<<<n / 256, 256, 1024>>>(a, 0.5, n);
        } else if (r == 1) {
            fill<<<n, 32>>>(out, n);
        } else {
            while (n > 0) {
                fill<<<n, 64, 16>>>(out, n - r);
                n = n - 1;
            }
        }
    }
}
`

// TestGoldenTransforms pins the exact transformed source of every benchmark
// kernel in all three modes (24 files), and of a host program through
// TransformProgram and through the one-kernel path flepc -kernel takes.
// Run with -update to regenerate after an intentional change.
func TestGoldenTransforms(t *testing.T) {
	modes := []struct {
		name string
		mode transform.Mode
	}{
		{"naive", transform.ModeTemporalNaive},
		{"temporal", transform.ModeTemporal},
		{"spatial", transform.ModeSpatial},
	}
	for _, b := range All() {
		for _, m := range modes {
			b, m := b, m
			file := b.KernelName + "_" + m.name + ".cu"
			t.Run(file, func(t *testing.T) {
				prog, err := cl.Parse(b.Source)
				if err != nil {
					t.Fatal(err)
				}
				out, _, err := transform.TransformKernel(prog, b.KernelName, m.mode)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, file, cl.Format(out))
			})
		}
	}
	t.Run("host_program.cu", func(t *testing.T) {
		prog, err := cl.Parse(goldenHostSrc)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := transform.TransformProgram(prog, transform.ModeSpatial)
		if err != nil {
			t.Fatal(err)
		}
		got := cl.Format(out)
		if strings.Contains(got, "<<<") {
			t.Error("TransformProgram left a launch in place")
		}
		checkGolden(t, "host_program.cu", got)
	})
	t.Run("host_one_kernel.cu", func(t *testing.T) {
		prog, err := cl.Parse(goldenHostSrc)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := transform.TransformKernel(prog, "scale", transform.ModeTemporal)
		if err != nil {
			t.Fatal(err)
		}
		n := transform.TransformHost(out, map[string]*transform.KernelInfo{"scale": {}})
		if n != 2 {
			t.Errorf("TransformHost rewrote %d launches, want 2", n)
		}
		got := cl.Format(out)
		if strings.Count(got, "fill<<<") != 2 {
			t.Error("launches of the kernel left out of the map must stay <<< >>>")
		}
		checkGolden(t, "host_one_kernel.cu", got)
	})
}

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("transformed source differs from %s;\nrun `go test ./internal/kernels -run Golden -update` if intentional\n--- got ---\n%s", path, got)
	}
}
