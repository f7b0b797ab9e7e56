// Package flep is a faithful reimplementation-as-simulation of FLEP
// ("FLEP: Enabling Flexible and Efficient Preemption on GPUs", Wu, Liu,
// Zhou, Jiang — ASPLOS 2017): the first software system enabling flexible
// kernel preemption and kernel scheduling on commodity GPUs.
//
// The package exposes the system's three layers:
//
//   - The compilation engine: TransformSource rewrites MiniCUDA (a CUDA-C
//     dialect) kernels into preemptable persistent-thread forms — temporal
//     (yield all SMs), amortized (poll every L tasks), and spatial (yield
//     only SMs below the flag value) — and rewrites host launch sites to
//     route through the runtime interceptor.
//
//   - The runtime engine: NewSystem + System.Offline build per-kernel
//     artifacts (tuned amortizing factor, duration model, preemption
//     overhead estimate); System.RunFLEP schedules co-run scenarios under
//     the HPF or FFS policy, against a calibrated K40 device model, and
//     RunMPS runs them without preemption. Either returns one KernelRun
//     per finished launch, normalized by its own input's solo time.
//
//   - The evaluation: the workload constructors reproduce the paper's
//     co-run scenarios, and internal/experiments regenerates every table
//     and figure (see cmd/flepbench).
//
// Because no GPU hardware is required, everything runs against a
// deterministic discrete-event device model calibrated to the paper's
// Table 1 (see DESIGN.md for the substitution argument).
package flep

import (
	"fmt"

	"flep/internal/core"
	"flep/internal/cudalite"
	"flep/internal/gpu"
	"flep/internal/hostexec"
	"flep/internal/kernels"
	"flep/internal/metrics"
	"flep/internal/server"
	"flep/internal/transform"
	"flep/internal/workload"
)

// System is a FLEP deployment: offline artifacts plus online scheduling.
type System = core.System

// Options configure an online run (policy, spatial preemption, FFS budget).
type Options = core.Options

// RunResult aggregates one scenario execution.
type RunResult = core.RunResult

// KernelRun is the record of one finished launch: its turnaround, waiting
// time and preemptions beside the solo time of its own input, from which
// NTT, ANTT and STP are computed.
type KernelRun = metrics.KernelRun

// Artifacts is the offline-phase output for one kernel.
type Artifacts = core.Artifacts

// Benchmark is one of the paper's eight applications.
type Benchmark = kernels.Benchmark

// InputClass selects the large, small, or trivial input (Table 1).
type InputClass = kernels.InputClass

// Input classes.
const (
	Large   = kernels.Large
	Small   = kernels.Small
	Trivial = kernels.Trivial
)

// Scenario is a co-run workload.
type Scenario = workload.Scenario

// Item is one client submission in a scenario.
type Item = workload.Item

// Params are the GPU model's calibration constants.
type Params = gpu.Params

// TransformMode selects the generated kernel form of the paper's Figure 4.
type TransformMode = transform.Mode

// Transformation modes.
const (
	// TemporalNaive polls the flag before every task (Figure 4a).
	TemporalNaive = transform.ModeTemporalNaive
	// Temporal polls once per L tasks (Figure 4b).
	Temporal = transform.ModeTemporal
	// Spatial yields only SMs below the flag value (Figure 4c).
	Spatial = transform.ModeSpatial
)

// NewSystem builds a FLEP system on the paper's K40 device model.
func NewSystem() *System { return core.NewSystem(gpu.DefaultParams()) }

// NewSystemWithParams builds a FLEP system on a custom device model.
func NewSystemWithParams(par Params) *System { return core.NewSystem(par) }

// DefaultParams returns the calibrated K40 device model.
func DefaultParams() Params { return gpu.DefaultParams() }

// Benchmarks returns the paper's eight benchmarks in Table 1 order.
func Benchmarks() []*Benchmark { return kernels.All() }

// BenchmarkByName looks a benchmark up by its Table 1 name.
func BenchmarkByName(name string) (*Benchmark, error) { return kernels.ByName(name) }

// TransformSource runs the FLEP compilation engine over a MiniCUDA
// translation unit: every __global__ kernel gains a preemptable
// persistent-thread form and every host launch is rewritten to call the
// runtime interceptor. It returns the transformed source text.
func TransformSource(src string, mode TransformMode) (string, error) {
	prog, err := cudalite.Parse(src)
	if err != nil {
		return "", fmt.Errorf("flep: %w", err)
	}
	out, _, err := transform.TransformProgram(prog, mode)
	if err != nil {
		return "", err
	}
	return cudalite.Format(out), nil
}

// TransformKernelSource transforms only the named kernel and returns the
// transformed source together with the generated kernel's name and the
// appended parameter list.
func TransformKernelSource(src, kernel string, mode TransformMode) (out string, preemptable string, extraParams []string, err error) {
	prog, err := cudalite.Parse(src)
	if err != nil {
		return "", "", nil, fmt.Errorf("flep: %w", err)
	}
	transformed, info, err := transform.TransformKernel(prog, kernel, mode)
	if err != nil {
		return "", "", nil, err
	}
	return cudalite.Format(transformed), info.Preemptable, info.ExtraParams, nil
}

// ---- whole-program execution (compile + run host code) ----

// CompiledProgram is a FLEP-compiled MiniCUDA translation unit whose host
// code can be executed against a live runtime.
type CompiledProgram = hostexec.Program

// HostProc is one host process to run (a host function + args + priority).
type HostProc = hostexec.HostProc

// RunOptions configure whole-program execution.
type RunOptions = hostexec.Options

// RunReport is the outcome of a whole-program run.
type RunReport = hostexec.Report

// Value is a MiniCUDA runtime value (host-program arguments).
type Value = cudalite.Value

// DeviceBuffer is a device-memory region passed to host programs.
type DeviceBuffer = cudalite.Buffer

// Argument and buffer constructors for host programs.
var (
	// NewFloatBuffer allocates a float device buffer.
	NewFloatBuffer = cudalite.NewFloatBuffer
	// NewIntBuffer allocates an int device buffer.
	NewIntBuffer = cudalite.NewIntBuffer
	// Ptr makes a pointer argument to a buffer.
	Ptr = cudalite.PtrValue
	// Int makes an integer argument.
	Int = cudalite.IntValue
	// Float makes a floating-point argument.
	Float = cudalite.FloatValue
)

// CompileProgram runs the FLEP offline pipeline on a MiniCUDA translation
// unit: transformation, occupancy analysis, static cost estimation, and
// amortizing-factor tuning, on the default K40 model.
func CompileProgram(src string) (*CompiledProgram, error) {
	return hostexec.Compile(src, gpu.DefaultParams())
}

// RunProgram executes host processes of a compiled program end-to-end: the
// transformed host code's flep_intercept calls reach the FLEP runtime,
// kernels are scheduled (and preempted) on the simulated device, and grids
// small enough to interpret also execute functionally, so the caller's
// buffers hold real results afterwards.
func RunProgram(p *CompiledProgram, opt RunOptions, procs ...HostProc) (*RunReport, error) {
	return hostexec.Run(p, opt, procs...)
}

// ---- serving layer (flepd) ----

// Server is the flepd serving layer: a daemon that owns one System and
// schedules kernel-launch requests from concurrent clients through the
// FLEP runtime on an event-loop goroutine (see cmd/flepd).
type Server = server.Server

// ServerConfig parameterizes a daemon instance (policy, admission queue
// depth, request timeout, trace retention).
type ServerConfig = server.Config

// LaunchRequest is the JSON body of POST /v1/launch.
type LaunchRequest = server.LaunchRequest

// LaunchResult is the structured per-request outcome (turnaround, wait,
// preemption count, overhead) of a completed invocation.
type LaunchResult = server.LaunchResult

// SessionSnapshot is the JSON view of one client session.
type SessionSnapshot = server.SessionSnapshot

// NewServer builds offline artifacts for cfg.Benchmarks and starts a
// daemon event loop; serve its Handler() over HTTP and stop it with
// Shutdown.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewServerWithSystem starts a daemon over an existing system whose
// Offline phase already ran; the daemon's event loop takes ownership of
// the system.
func NewServerWithSystem(sys *System, cfg ServerConfig) (*Server, error) {
	return server.NewWithSystem(sys, cfg)
}

// Scenario constructors (the paper's co-run shapes).
var (
	// PriorityPair: B large low-priority, A small high-priority (Fig. 8).
	PriorityPair = workload.PriorityPair
	// EqualPair: long large + short small at equal priority (Fig. 10).
	EqualPair = workload.EqualPair
	// Triplet: one large + two small, equal priority (Fig. 12).
	Triplet = workload.Triplet
	// FairPair: two closed-loop clients for FFS fairness (Fig. 13).
	FairPair = workload.FairPair
	// SpatialPair: large low-priority + trivial high-priority (Fig. 15).
	SpatialPair = workload.SpatialPair
)
