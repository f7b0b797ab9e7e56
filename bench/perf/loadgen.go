package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flep/internal/server"
)

// prepared is one distinct launch, its body encoded once and reused for
// every repetition so the generator spends nothing on encoding.
type prepared struct {
	body []byte
	// latencyCritical marks a deadline-bearing launch: one that fails
	// counts as a missed deadline.
	latencyCritical bool
}

func prepare(req server.LaunchRequest) prepared {
	body, err := json.Marshal(req)
	if err != nil {
		// LaunchRequest holds only strings, numbers and string slices.
		panic("flepperf: encode launch request: " + err.Error())
	}
	return prepared{body: body, latencyCritical: req.DeadlineMS > 0}
}

// phase is one stretch of a run. The clients send launches in every phase
// but a ref one, in which they drive the reference server instead (see
// reference.go); record keeps a phase's completions and latencies; traced
// samples spans and decodes every response in full.
type phase struct {
	dur    time.Duration
	record bool
	traced bool
	ref    bool
}

// timedWindows is how many equal windows the timed pass measures.
const timedWindows = 38

// timedPhases is the timed pass: a discarded warm-up, then 38 cycles of a
// reference slice and a measured window, and a closing reference slice,
// so that every window has the host's speed read on both sides of it. At
// the reference 20 s a cycle is half a second: 0.1 s of reference and a
// 0.4 s window, long enough for the 1,000 launches a p99 needs.
func timedPhases(total time.Duration) []phase {
	cycle := (total - total/20) / timedWindows
	slice := cycle / 5
	ps := []phase{{dur: total/20 - slice}}
	for i := 0; i < timedWindows; i++ {
		ps = append(ps, phase{dur: slice, ref: true}, phase{dur: cycle - slice, record: true})
	}
	return append(ps, phase{dur: slice, ref: true})
}

// tracedPhases is the traced pass: warm-up, an untraced window (the base
// of trace.overhead_pct), then the traced window. The rest of
// the run's budget goes to the layer probes.
func tracedPhases(total time.Duration) []phase {
	unit := total / 13
	return []phase{
		{dur: unit},
		{dur: 2 * unit, record: true},
		{dur: 4 * unit, record: true, traced: true},
	}
}

const (
	// spanSampleEvery: one launch in 64 of the traced window records spans.
	spanSampleEvery = 64
	// decodeEvery: outside the traced window one response in 16 is decoded
	// in full; the end-of-run ledger covers the rest.
	decodeEvery = 16
)

// genConfig parameterizes one closed-loop run.
type genConfig struct {
	phases []phase
	// maxRetries and retrySleep govern 429 handling: the same launch is
	// retried after retrySleep, up to maxRetries times. Zero retries means
	// any non-200 fails the launch.
	maxRetries int
	retrySleep time.Duration
	rec        *Recorder
	// onBoundary, if set, runs on the coordinator at every phase boundary
	// (0 = start of the first phase … len(phases) = end of the last).
	onBoundary func(i int)
}

// seenResult is what the ledger keeps of a decoded response.
type seenResult struct {
	node   string
	device int
	id     int
	sane   bool // finished ≥ submitted on the virtual clock
}

// phaseStats is one phase's outcome. In a ref phase completed counts
// reference round trips and nothing else is kept.
type phaseStats struct {
	dur       time.Duration
	completed int64
	retries   int64
	latencies []int64 // ns, first attempt → final response, all clients
	// clientP50 is each client's own median latency in µs (clients with
	// no sample in the phase are left out).
	clientP50 []float64
	cpu       time.Duration
}

// genResult is a whole run's outcome. Totals cover every phase including
// warm-up, because the servers' ledgers do too.
type genResult struct {
	phases    []phaseStats
	attempted int64
	ok        int64
	failed    int64
	failedLC  int64
	refFailed int64 // reference round trips that did not return 200
	okPerNode map[string]int64
	seen      []seenResult
	firstErrs []string
}

// inprocWriter is the minimal ResponseWriter for calling a handler with
// no sockets.
type inprocWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *inprocWriter) Header() http.Header { return w.hdr }
func (w *inprocWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *inprocWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(p)
}
func (w *inprocWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.buf.Reset()
}

// genClient is one closed-loop client: it sends its next launch only
// after the previous one returned, like a host program blocked in
// flep_intercept.
type genClient struct {
	plan []prepared
	st   *stack       // the system under test
	ref  *stack       // the reference server, reached the same way
	rw   inprocWriter // in-process transport
	buf  bytes.Buffer // HTTP response body

	perPhase  []phaseStats
	attempted int64
	ok        int64
	failed    int64
	failedLC  int64
	refFailed int64
	okPerNode map[string]int64
	seen      []seenResult
	errs      []string
}

// attempt posts body to st's /v1/launch once and returns the status, the
// serving node and the response body (valid until the next attempt).
func (c *genClient) attempt(st *stack, body []byte, lid uint64) (int, string, []byte, error) {
	if st.baseURL == "" {
		req, err := http.NewRequest(http.MethodPost, "http://inproc/v1/launch", bytes.NewReader(body))
		if err != nil {
			return 0, "", nil, err
		}
		if lid != 0 {
			req.Header.Set(launchHeader, strconv.FormatUint(lid, 10))
		}
		c.rw.reset()
		st.front.ServeHTTP(&c.rw, req)
		return c.rw.code, c.rw.hdr.Get("X-Flep-Node"), c.rw.buf.Bytes(), nil
	}
	req, err := http.NewRequest(http.MethodPost, st.baseURL+"/v1/launch", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if lid != 0 {
		req.Header.Set(launchHeader, strconv.FormatUint(lid, 10))
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Flep-Node"), c.buf.Bytes(), nil
}

func (c *genClient) noteErr(format string, args ...any) {
	if len(c.errs) < 3 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// run drives the client until the last phase ends.
func (c *genClient) run(cfg *genConfig, bounds []time.Duration, t0 time.Time, nextLaunch *atomic.Uint64) {
	phaseAt := func(t time.Time) int {
		since := t.Sub(t0)
		for i, b := range bounds {
			if since < b {
				return i
			}
		}
		return len(bounds)
	}
	// yield sends an in-process client to the back of the run queue once it
	// has its reply. In-process clients share the Go scheduler with the
	// server, and a client woken by its reply would otherwise run its next
	// launch ahead of every client already waiting — or not, depending on
	// which run queue it landed in — so the median latency flips between
	// 25 µs and 250 µs from one half second to the next. A client over a
	// socket comes back through the poller, behind the others.
	yield := func() {
		if c.st.baseURL == "" {
			runtime.Gosched()
		}
	}
	var res server.LaunchResult
	n := -1 // launches sent so far, less one
	for {
		start := time.Now()
		ph := phaseAt(start)
		if ph >= len(cfg.phases) {
			return
		}
		if cfg.phases[ph].ref {
			code, _, _, err := c.attempt(c.ref, refBody, 0)
			switch {
			case err != nil || code != http.StatusOK:
				c.refFailed++
				c.noteErr("reference: status %d: %v", code, err)
			case phaseAt(time.Now()) == ph:
				c.perPhase[ph].completed++
			}
			yield()
			continue
		}
		n++
		p := &c.plan[n%len(c.plan)]
		traced := cfg.phases[ph].traced
		var lid uint64
		var spanStart int64
		if traced && n%spanSampleEvery == 0 {
			lid = nextLaunch.Add(1)
			spanStart = cfg.rec.Now()
		}
		c.attempted++
		var (
			code    int
			node    string
			body    []byte
			err     error
			retries int64
		)
		for {
			code, node, body, err = c.attempt(c.st, p.body, lid)
			if err != nil || code != http.StatusTooManyRequests || retries >= int64(cfg.maxRetries) {
				break
			}
			retries++
			time.Sleep(cfg.retrySleep)
		}
		decoded := false
		if err == nil && code == http.StatusOK && (traced || n%decodeEvery == 0) {
			res = server.LaunchResult{}
			if err = json.Unmarshal(body, &res); err == nil {
				decoded = true
				c.seen = append(c.seen, seenResult{node: node, device: res.Device, id: res.ID,
					sane: res.FinishedVirtualNS >= res.SubmittedVirtualNS})
			}
		}
		end := time.Now()
		switch {
		case err != nil:
			c.failed++
			c.noteErr("launch: %v", err)
		case code != http.StatusOK:
			c.failed++
			c.noteErr("launch: status %d after %d retries: %.120s", code, retries, body)
		default:
			c.ok++
			c.okPerNode[node]++
		}
		if (err != nil || code != http.StatusOK) && p.latencyCritical {
			c.failedLC++
		}
		if lid != 0 {
			now := cfg.rec.Now()
			cfg.rec.Add(Span{Name: SpanClient, Launch: lid, Start: spanStart, End: now})
			if decoded {
				// Placed under the launch's server span by anchorAdmission.
				cfg.rec.Add(Span{Name: SpanAdmission, Parent: SpanServer, Launch: lid, End: res.QueueWaitRealNS})
			}
		}
		yield()
		if err != nil || code != http.StatusOK {
			continue
		}
		// A launch belongs to the phase it completed in.
		if done := phaseAt(end); done < len(cfg.phases) && cfg.phases[done].record {
			ps := &c.perPhase[done]
			ps.completed++
			ps.retries += retries
			ps.latencies = append(ps.latencies, int64(end.Sub(start)))
		}
	}
}

// runLoad runs every client's closed loop across the configured phases
// and merges their outcomes.
func runLoad(st, ref *stack, plans [][]prepared, cfg genConfig) genResult {
	bounds := make([]time.Duration, len(cfg.phases))
	var total time.Duration
	for i, p := range cfg.phases {
		total += p.dur
		bounds[i] = total
	}
	clients := make([]*genClient, len(plans))
	for i, plan := range plans {
		c := &genClient{plan: plan, st: st, ref: ref,
			okPerNode: map[string]int64{}, perPhase: make([]phaseStats, len(cfg.phases))}
		c.rw.hdr = http.Header{}
		for j, p := range cfg.phases {
			if p.record {
				// Room for ~200k launches/s across all clients before a
				// latency buffer has to grow.
				c.perPhase[j].latencies = make([]int64, 0, int(p.dur.Seconds()*200_000)/len(plans)+1024)
			}
		}
		clients[i] = c
	}

	var nextLaunch atomic.Uint64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *genClient) {
			defer wg.Done()
			c.run(&cfg, bounds, t0, &nextLaunch)
		}(c)
	}
	// The coordinator reads the CPU clock at each boundary and runs the
	// boundary hook; it does nothing in between.
	cpuAt := make([]time.Duration, len(bounds)+1)
	for i := 0; i <= len(bounds); i++ {
		at := t0
		if i > 0 {
			at = t0.Add(bounds[i-1])
		}
		time.Sleep(time.Until(at))
		cpuAt[i] = cpuTime()
		if cfg.onBoundary != nil {
			cfg.onBoundary(i)
		}
	}
	wg.Wait()

	out := genResult{phases: make([]phaseStats, len(cfg.phases)), okPerNode: map[string]int64{}}
	for i, p := range cfg.phases {
		out.phases[i].dur = p.dur
		out.phases[i].cpu = cpuAt[i+1] - cpuAt[i]
	}
	for _, c := range clients {
		out.attempted += c.attempted
		out.ok += c.ok
		out.failed += c.failed
		out.failedLC += c.failedLC
		out.refFailed += c.refFailed
		for node, n := range c.okPerNode {
			out.okPerNode[node] += n
		}
		out.seen = append(out.seen, c.seen...)
		for _, e := range c.errs {
			if len(out.firstErrs) < 5 {
				out.firstErrs = append(out.firstErrs, e)
			}
		}
		for i := range c.perPhase {
			out.phases[i].completed += c.perPhase[i].completed
			out.phases[i].retries += c.perPhase[i].retries
			out.phases[i].latencies = append(out.phases[i].latencies, c.perPhase[i].latencies...)
			if len(c.perPhase[i].latencies) > 0 {
				out.phases[i].clientP50 = append(out.phases[i].clientP50,
					Quantile(durationsToMicros(c.perPhase[i].latencies), 0.5))
			}
		}
	}
	return out
}
