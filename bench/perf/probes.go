package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"flep/internal/core"
	cl "flep/internal/cudalite"
	"flep/internal/experiments"
	"flep/internal/flepruntime"
	"flep/internal/gpu"
	"flep/internal/hostexec"
	"flep/internal/kernels"
	"flep/internal/model"
	"flep/internal/obs"
	"flep/internal/replay"
	"flep/internal/server"
	"flep/internal/sim"
	"flep/internal/transform"
	"flep/internal/workload"
)

// The layer probes drive each module's public API on its own, with
// nothing else running, so a change to one layer shows up under that
// layer's name before anyone has to read a profile. They use fixed
// inputs: a probe's value depends on the code, not on the seed.

// probeCount is how many timed probes share the probe budget.
const probeCount = 50

// prober times operations within a per-probe share of the budget.
type prober struct {
	rec      *Recorder
	perProbe time.Duration
	values   Values
}

// measure returns the median nanoseconds per operation of batch, which
// must perform n operations. The batch grows until one call fills a
// quarter of the probe's share, then runs twice more; an operation so
// slow that one call overruns the whole share is measured once.
func (p *prober) measure(name string, batch func(n int)) float64 {
	slice := p.perProbe / 4
	start := p.rec.Now()
	n := 1
	var elapsed time.Duration
	for {
		t := time.Now()
		batch(n)
		elapsed = time.Since(t)
		if elapsed >= slice || n >= 1<<28 {
			break
		}
		if elapsed < slice/16 {
			n *= 8
		} else {
			n = int(float64(n)*float64(slice)/float64(elapsed)*1.1) + 1
		}
	}
	samples := []float64{float64(elapsed) / float64(n)}
	if elapsed < p.perProbe {
		for i := 0; i < 2; i++ {
			t := time.Now()
			batch(n)
			samples = append(samples, float64(time.Since(t))/float64(n))
		}
	}
	p.rec.Add(Span{Name: "probe." + name, Start: start, End: p.rec.Now()})
	return Median(samples)
}

// ns, us and ms store a measured probe in the unit its name carries.
func (p *prober) ns(name string, batch func(n int)) { p.values[name] = p.measure(name, batch) }
func (p *prober) us(name string, batch func(n int)) { p.values[name] = p.measure(name, batch) / 1e3 }
func (p *prober) ms(name string, batch func(n int)) { p.values[name] = p.measure(name, batch) / 1e6 }

// allocsPer counts heap allocations per operation over one batch of n.
func allocsPer(n int, batch func(n int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batch(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// must turns a probe's set-up failure into a panic that runProbes
// reports as an error: a probe that cannot run is a broken benchmark.
func must[T any](v T, err error) T {
	if err != nil {
		panic(probeFailure{err})
	}
	return v
}

func mustOK(err error) {
	if err != nil {
		panic(probeFailure{err})
	}
}

type probeFailure struct{ err error }

// runProbes runs every layer probe within roughly budget and returns
// their values. Spans of the probes go to rec.
func runProbes(budget time.Duration, rec *Recorder) (vs Values, err error) {
	p := &prober{rec: rec, perProbe: budget / probeCount, values: Values{}}
	defer func() {
		if r := recover(); r != nil {
			pf, ok := r.(probeFailure)
			if !ok {
				panic(r)
			}
			vs, err = nil, pf.err
		}
	}()
	sys := core.NewSystem(gpu.DefaultParams())
	mustOK(sys.OfflineAll())
	probeSim(p)
	probeGPU(p, sys)
	probeRuntime(p, sys)
	probeCore(p, sys)
	probeServer(p)
	probeCluster(p)
	probeReplay(p)
	probeObs(p)
	probeExperiments(p)
	probeOffline(p, sys)
	return p.values, nil
}

func probeSim(p *prober) {
	const depth = 1024
	nop := func() {}
	newEngine := func() *sim.Engine {
		eng := sim.New()
		for i := 0; i < depth; i++ {
			eng.Schedule(time.Duration(i+1)*time.Microsecond, nop)
		}
		return eng
	}
	eng := newEngine()
	event := func(n int) {
		for i := 0; i < n; i++ {
			eng.Schedule(depth*time.Microsecond, nop)
			eng.Step()
		}
	}
	p.ns("sim.ns_per_event", event)
	p.values["sim.allocs_per_event"] = allocsPer(1<<14, event)

	// A canceled event stays in the heap until its time comes up, so the
	// cost of a cancel includes popping the dead entry later.
	ceng := newEngine()
	p.ns("sim.cancel_ns", func(n int) {
		for i := 0; i < n; i++ {
			ceng.Schedule(time.Microsecond, nop).Cancel()
			if i%depth == depth-1 {
				ceng.Schedule(2*time.Microsecond, nop)
				ceng.Step()
			}
		}
	})
}

func probeGPU(p *prober, sys *core.System) {
	b := must(kernels.ByName("NN"))
	art := sys.Artifacts(b.Name)
	in := b.Input(kernels.Small)
	var events int
	var solo time.Duration // virtual duration of the undisturbed execution
	run := func(preempt bool) {
		eng := sim.New()
		dev := gpu.New(eng, sys.Par)
		cfg := gpu.ExecConfig{
			Profile: art.Profile, TotalTasks: in.Tasks, TaskCost: in.TaskCost,
			Persistent: true, L: art.L, SMLo: 0, SMHi: dev.NumSMs(),
			OnComplete: func() {},
		}
		if preempt {
			// Drain at the half-way point, then resume cold: one full
			// Start → Preempt → restart cycle.
			cfg.OnDrained = func(remaining int) {
				if remaining == 0 {
					return
				}
				resume := cfg
				resume.DoneTasks, resume.ColdStart, resume.OnDrained = in.Tasks-remaining, true, nil
				must(dev.Start(resume))
			}
		}
		exec := must(dev.Start(cfg))
		if preempt {
			eng.Schedule(solo/2, func() {
				mustOK(exec.Preempt(dev.NumSMs()))
			})
		}
		events = 0
		for eng.Step() {
			events++
		}
		if !preempt {
			solo = eng.Now()
		}
	}
	p.ns("gpu.ns_per_exec_solo", func(n int) {
		for i := 0; i < n; i++ {
			run(false)
		}
	})
	p.values["gpu.events_per_exec_solo"] = float64(events)
	p.ns("gpu.ns_per_preempt_resume", func(n int) {
		for i := 0; i < n; i++ {
			run(true)
		}
	})
	p.values["gpu.events_per_preempt_resume"] = float64(events)
}

func probeRuntime(p *prober, sys *core.System) {
	benches := kernels.All()
	policies := []struct {
		name string
		make func() flepruntime.Policy
	}{
		{"hpf", func() flepruntime.Policy { return flepruntime.NewHPF() }},
		{"ffs", func() flepruntime.Policy { return flepruntime.NewFFS(0.10) }},
		{"edf", func() flepruntime.Policy { return flepruntime.NewEDF() }},
	}
	for _, pol := range policies {
		for _, depth := range []int{1, 64, 1024} {
			var steps int
			// Queue depth invocations on an idle runtime, then run the
			// engine until the device is idle again.
			drain := func() {
				eng := sim.New()
				dev := gpu.New(eng, sys.Par)
				rt := flepruntime.New(dev, flepruntime.Config{
					Policy: pol.make(),
					OverheadEstimate: func(kernel string) time.Duration {
						return sys.Artifacts(kernel).PreemptOverhead
					},
				})
				for i := 0; i < depth; i++ {
					b := benches[i%len(benches)]
					art := sys.Artifacts(b.Name)
					in := b.Input(kernels.Small)
					te := must(sys.Predict(b, in))
					v := &flepruntime.Invocation{
						ID: i + 1, Kernel: b.Name, Priority: 1 + i%4, Profile: art.Profile,
						Tasks: in.Tasks, TaskCost: in.TaskCost, L: art.L,
						WorkingSet: in.Bytes / 8, Te: te,
					}
					if pol.name == "edf" && i%2 == 0 {
						v.Deadline = time.Duration(i+1) * 2 * time.Millisecond
					}
					mustOK(rt.Submit(v))
				}
				steps = 0
				for eng.Step() {
					steps++
				}
			}
			name := fmt.Sprintf("flepruntime.%s_ns_per_launch_d%d", pol.name, depth)
			p.values[name] = p.measure(name, func(n int) {
				for i := 0; i < n; i++ {
					drain()
				}
			}) / float64(depth)
			if pol.name == "ffs" && depth == 64 {
				p.values["flepruntime.ffs_steps_per_launch_d64"] = float64(steps) / float64(depth)
			}
		}
	}
}

func probeCore(p *prober, sys *core.System) {
	p.ms("core.offline_all_ms", func(n int) {
		for i := 0; i < n; i++ {
			mustOK(core.NewSystem(gpu.DefaultParams()).OfflineAll())
		}
	})
	p.us("core.clone_us", func(n int) {
		for i := 0; i < n; i++ {
			sys.Clone()
		}
	})
	b := must(kernels.ByName("SPMV"))
	in := b.Input(kernels.Small)
	p.ns("core.predict_ns", func(n int) {
		for i := 0; i < n; i++ {
			must(sys.Predict(b, in))
		}
	})
	pair := workload.PriorityPair(b, must(kernels.ByName("NN")), 0)
	p.us("core.runflep_pair_us", func(n int) {
		for i := 0; i < n; i++ {
			must(sys.RunFLEP(pair, core.Options{Policy: "hpf"}))
		}
	})
	p.us("core.runmps_pair_us", func(n int) {
		for i := 0; i < n; i++ {
			must(sys.RunMPS(pair))
		}
	})
}

// postInproc sends one launch body straight into a handler and returns
// the status.
func postInproc(h http.Handler, w *inprocWriter, body []byte) int {
	return doInproc(h, w, http.MethodPost, "/v1/launch", body)
}

func expectStatus(got, want int, what string) {
	if got != want {
		panic(probeFailure{fmt.Errorf("%s: status %d, want %d", what, got, want)})
	}
}

func shutdown(s interface{ Shutdown(context.Context) error }) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mustOK(s.Shutdown(ctx))
}

func probeServer(p *prober) {
	trivial := prepare(server.LaunchRequest{Client: "probe", Benchmark: "VA", Class: "trivial"}).body
	w := &inprocWriter{hdr: http.Header{}}

	s := must(server.New(server.Config{Policy: "hpf"}))
	h := s.Handler()
	launch := func(n int) {
		for i := 0; i < n; i++ {
			expectStatus(postInproc(h, w, trivial), http.StatusOK, "in-process launch")
		}
	}
	p.ns("server.inproc_ns_per_launch", launch)
	p.values["server.inproc_allocs_per_launch"] = allocsPer(1<<12, launch)

	// Reads, with 64 sessions on the books.
	for i := 0; i < 64; i++ {
		body := prepare(server.LaunchRequest{Client: fmt.Sprintf("session%02d", i), Benchmark: "VA", Class: "trivial"}).body
		expectStatus(postInproc(h, w, body), http.StatusOK, "session launch")
	}
	get := func(path string) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				code, _ := getInproc(h, path)
				expectStatus(code, http.StatusOK, "GET "+path)
			}
		}
	}
	p.us("server.status_us", get("/v1/status"))
	p.us("server.sessions_us", get("/v1/sessions"))
	p.us("server.metrics_scrape_us", get("/metrics"))

	// The resnet preset, every stage submitted at once so later stages
	// park in the dependency table until their prerequisite completes.
	graph := must(model.ByName("resnet"))
	instance := 0
	p.values["server.dep_ns_per_stage"] = p.measure("server.dep_ns_per_stage", func(n int) {
		for i := 0; i < n; i++ {
			instance++
			var wg sync.WaitGroup
			codes := make([]int, len(graph.Stages))
			for j, stage := range graph.Stages {
				body := prepare(server.LaunchRequest{
					Client: "probe", Benchmark: stage.Bench, Class: stage.Class,
					Model: graph.Name, Graph: fmt.Sprintf("g%d", instance),
					Stage: stage.Name, After: stage.After, Stages: len(graph.Stages),
				}).body
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					codes[j] = postInproc(h, &inprocWriter{hdr: http.Header{}}, body)
				}(j)
			}
			wg.Wait()
			for _, code := range codes {
				expectStatus(code, http.StatusOK, "graph stage")
			}
		}
	}) / float64(len(graph.Stages))
	shutdown(s)

	// Rejects: park the loop, fill the queue with blocked launches, then
	// time the 429s the next launches get.
	const depth = 16
	rs := must(server.New(server.Config{Policy: "hpf", QueueDepth: depth}))
	rh := rs.Handler()
	mustOK(rs.Pause())
	var blocked sync.WaitGroup
	for i := 0; i < depth; i++ {
		blocked.Add(1)
		go func() {
			defer blocked.Done()
			postInproc(rh, &inprocWriter{hdr: http.Header{}}, trivial)
		}()
	}
	for queued := 0; queued < depth; {
		// Load() counts a launch before it is in the queue, so ask the
		// queue itself.
		time.Sleep(100 * time.Microsecond)
		var st server.Status
		_, body := getInproc(rh, "/v1/status")
		mustOK(json.Unmarshal(body, &st))
		queued = st.QueueLen
	}
	p.ns("server.reject_ns", func(n int) {
		for i := 0; i < n; i++ {
			expectStatus(postInproc(rh, w, trivial), http.StatusTooManyRequests, "launch into a full queue")
		}
	})
	mustOK(rs.Resume())
	blocked.Wait()
	shutdown(rs)

	fleet := must(server.NewFleet(server.FleetConfig{Config: server.Config{Policy: "hpf"}, Devices: 4}))
	fh := fleet.Handler()
	p.ns("server.fleet4_inproc_ns_per_launch", func(n int) {
		for i := 0; i < n; i++ {
			expectStatus(postInproc(fh, w, trivial), http.StatusOK, "fleet launch")
		}
	})
	shutdown(fleet)
}

// probeCluster measures what the gateway hop adds: the median latency of
// one closed-loop client through the gateway minus straight to a node.
func probeCluster(p *prober) {
	st := must(buildGateway(server.Config{Policy: "hpf"}, 1, nil))
	defer st.close()
	start := p.rec.Now()
	body := prepare(server.LaunchRequest{Client: "probe", Benchmark: "VA", Class: "trivial"}).body
	// fetch completes one exchange: the whole body read, a 200 required.
	fetch := func(resp *http.Response, err error) {
		mustOK(err)
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		mustOK(err)
		expectStatus(resp.StatusCode, http.StatusOK, resp.Request.Method+" "+resp.Request.URL.Path)
	}
	median := func(url string) float64 {
		const warm, n = 50, 500
		lat := make([]int64, 0, n)
		for i := 0; i < warm+n; i++ {
			t := time.Now()
			fetch(st.client.Post(url, "application/json", bytes.NewReader(body)))
			if i >= warm {
				lat = append(lat, int64(time.Since(t)))
			}
		}
		return Quantile(durationsToMicros(lat), 0.5)
	}
	p.values["cluster.hop_us"] = median(st.baseURL+"/v1/launch") - median("http://"+node0Addr+"/v1/launch")
	p.rec.Add(Span{Name: "probe.cluster.hop_us", Start: start, End: p.rec.Now()})
	p.us("cluster.sessions_us", func(n int) {
		for i := 0; i < n; i++ {
			fetch(st.client.Get(st.baseURL + "/v1/sessions"))
		}
	})
}

func probeReplay(p *prober) {
	tr := must(replay.SynthesizeMix(replayMix(), 1))
	records := float64(len(tr.Records))
	dir := filepath.Join(SpanDir, "probe-tmp")
	mustOK(os.MkdirAll(dir, 0o755))
	defer os.RemoveAll(dir)

	recPath := filepath.Join(dir, "record.jsonl")
	recorder := must(replay.NewRecorder(recPath, tr.Header, replay.RecorderOptions{}))
	sample := tr.Records[0]
	p.ns("replay.record_ns", func(n int) {
		for i := 0; i < n; i++ {
			recorder.Record(sample)
		}
	})
	mustOK(recorder.Close())

	tracePath := filepath.Join(dir, "trace.jsonl")
	mustOK(tr.WriteFile(tracePath))
	p.values["replay.load_ns_per_record"] = p.measure("replay.load_ns_per_record", func(n int) {
		for i := 0; i < n; i++ {
			must(replay.Load(tracePath))
		}
	}) / records

	rp := must(replay.NewReplayer(tr, replay.ReplayerOptions{}))
	for _, policy := range []string{"hpf", "ffs", "edf", "fifo"} {
		name := "replay.run_ns_per_record_" + policy
		p.values[name] = p.measure(name, func(n int) {
			for i := 0; i < n; i++ {
				must(rp.Run(replay.ReplayConfig{Policy: policy, Devices: 1, Seed: 1}))
			}
		}) / records
	}
	p.ms("replay.whatif_ms", func(n int) {
		for i := 0; i < n; i++ {
			must(rp.WhatIf(replay.Matrix{Policies: []string{"hpf", "ffs", "edf", "fifo"}, Devices: []int{1, 2}, Seed: 1}))
		}
	})
}

func probeObs(p *prober) {
	reg := obs.NewRegistry()
	counter := reg.Counter("flep_perfprobe_events_total", "Events counted by the obs probe")
	hist := reg.Histogram("flep_perfprobe_latency_seconds", "Latencies observed by the obs probe", nil)
	p.ns("obs.counter_inc_ns", func(n int) {
		for i := 0; i < n; i++ {
			counter.Inc()
		}
	})
	p.ns("obs.histogram_observe_ns", func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(float64(i%1000) * 1e-6)
		}
	})

	// A server's registry is the realistic exposition: ~50 families.
	s := must(server.New(server.Config{Policy: "ffs"}))
	defer shutdown(s)
	var text bytes.Buffer
	p.us("obs.write_prometheus_us", func(n int) {
		for i := 0; i < n; i++ {
			text.Reset()
			mustOK(s.Registry().WritePrometheus(&text))
		}
	})
	exposition := text.Bytes()
	p.us("obs.parse_text_us", func(n int) {
		for i := 0; i < n; i++ {
			must(obs.ParseText(bytes.NewReader(exposition)))
		}
	})
	var relabeled bytes.Buffer
	p.us("obs.relabel_us", func(n int) {
		for i := 0; i < n; i++ {
			relabeled.Reset()
			mustOK(obs.RelabelText(&relabeled, bytes.NewReader(exposition), "node", "n0"))
		}
	})
}

func probeExperiments(p *prober) {
	var suite *experiments.Suite
	p.ms("experiments.offline_ms", func(n int) {
		for i := 0; i < n; i++ {
			suite = must(experiments.NewSuite())
		}
	})
	named := map[string]string{
		"fig7": "experiments.fig7_ms", "fig12": "experiments.fig12_ms",
		"fig13": "experiments.fig13_ms", "fig14": "experiments.fig14_ms",
	}
	var rest []experiments.Generator
	for _, g := range experiments.Generators() {
		metric, ok := named[g.ID]
		if !ok {
			rest = append(rest, g)
			continue
		}
		p.ms(metric, func(n int) {
			for i := 0; i < n; i++ {
				must(g.Run(suite))
			}
		})
	}
	p.ms("experiments.rest_ms", func(n int) {
		for i := 0; i < n; i++ {
			for _, g := range rest {
				must(g.Run(suite))
			}
		}
	})
}

// hostProgram is a complete MiniCUDA translation unit: one kernel and the
// host function that launches it.
const hostProgram = `
__global__ void va(float* a, float* b, float* c, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        c[i] = a[i] + b[i];
    }
}

void main_host(float* a, float* b, float* c, int n) {
    va<<<(n + 255) / 256, 256>>>(a, b, c, n);
}
`

// probeOffline covers the offline paths, which should move nothing that
// is served: the compiler, a compiled host program's run, and model
// graph validation.
func probeOffline(p *prober, sys *core.System) {
	prog := sys.Artifacts("NN").Program
	p.us("transform.program_us", func(n int) {
		for i := 0; i < n; i++ {
			_, _, err := transform.TransformProgram(prog, transform.ModeSpatial)
			mustOK(err)
		}
	})
	compiled := must(hostexec.Compile(hostProgram, gpu.DefaultParams()))
	const elems = 1024
	p.ms("hostexec.run_program_ms", func(n int) {
		for i := 0; i < n; i++ {
			args := []cl.Value{
				cl.PtrValue(cl.NewFloatBuffer("a", elems), 0),
				cl.PtrValue(cl.NewFloatBuffer("b", elems), 0),
				cl.PtrValue(cl.NewFloatBuffer("c", elems), 0),
				cl.IntValue(elems),
			}
			must(hostexec.Run(compiled, hostexec.Options{}, hostexec.HostProc{Func: "main_host", Args: args, Priority: 1}))
		}
	})
	p.us("model.validate_us", func(n int) {
		for i := 0; i < n; i++ {
			for _, g := range model.Presets() {
				mustOK(g.Validate())
			}
		}
	})
}
