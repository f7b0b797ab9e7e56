package perf

import (
	"container/heap"
	"encoding/json"
	"net/http"
	"sort"
	"time"
)

// The host this benchmark runs on is a small VM on a shared machine, and
// what it gives a program changes from second to second and from minute to
// minute: pure arithmetic runs at one of two speeds a third apart, and
// anything that crosses the kernel or wakes another vCPU swings by a factor
// of two and more. Ten 20 s runs of one binary read 15–35 % apart as
// measured, whatever statistic is taken over a run, because whole runs fall
// into different weather.
//
// So every run measures the weather beside the system. A reference — code
// in this file, which no change to the system touches — is driven the same
// way as the system (same clients, same transport, same GOMAXPROCS) in
// short slices between the measured windows. What the reference reaches in
// the slices around a window, over what it reaches on a quiet host
// (nominal), is the host's speed during that window. A rate is divided by
// it, a time is multiplied by it, and the run reports the median window.
// The figures therefore read "on a host of nominal speed"; the same run's
// as-measured figures and the speed are printed beside them.

// refServer is the reference for the serving workloads: a frozen
// miniature of the launch path — decode a small JSON body, hand the
// request to a single loop goroutine over a channel, wait for its reply,
// encode a small JSON body — so that its cost is made of the same things
// (net/http, the codec, a goroutine hand-off each way) as a launch's.
type refServer struct {
	submit chan *refJob
	done   chan struct{}
}

type refJob struct {
	work  int
	reply chan int
}

type refRequest struct {
	Client    string `json:"client"`
	Benchmark string `json:"benchmark"`
	Work      int    `json:"work"`
}

type refReply struct {
	Client    string `json:"client"`
	Benchmark string `json:"benchmark"`
	Result    int    `json:"result"`
}

// refBody is the one request every reference round trip sends.
var refBody = mustJSON(refRequest{Client: "reference", Benchmark: "REF", Work: 16})

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("flepperf: encode: " + err.Error())
	}
	return b
}

func newRefServer() *refServer {
	r := &refServer{submit: make(chan *refJob), done: make(chan struct{})}
	go r.loop()
	return r
}

// loop is the reference's event loop: per request, a few pushes and pops
// on a small heap.
func (r *refServer) loop() {
	defer close(r.done)
	h := &intHeap{}
	for i := 0; i < 64; i++ {
		heap.Push(h, i*7919%64)
	}
	for job := range r.submit {
		x := 0
		for i := 0; i < job.work; i++ {
			x = heap.Pop(h).(int)
			heap.Push(h, (x*31+i)%1024)
		}
		job.reply <- x
	}
}

func (r *refServer) stop() {
	close(r.submit)
	<-r.done
}

func (r *refServer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var in refRequest
	if err := json.NewDecoder(req.Body).Decode(&in); err != nil || in.Work < 0 || in.Work > 1024 {
		http.Error(w, "bad reference request", http.StatusBadRequest)
		return
	}
	job := &refJob{work: in.Work, reply: make(chan int, 1)}
	r.submit <- job
	out := refReply{Client: in.Client, Benchmark: in.Benchmark, Result: <-job.reply}
	w.Header().Set("Content-Type", "application/json")
	// A write error means the client went away; it counts the failure.
	_ = json.NewEncoder(w).Encode(out)
}

type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// buildReference assembles the reference server the way the system is
// reached: behind a loopback listener with conns keep-alive connections,
// or called directly.
func buildReference(tcp bool, conns int) (*stack, error) {
	r := newRefServer()
	st := &stack{front: r, stops: []func(){r.stop}}
	if !tcp {
		return st, nil
	}
	addr, err := st.serve("127.0.0.1:0", r)
	if err != nil {
		st.close()
		return nil, err
	}
	st.baseURL = "http://" + addr
	st.client = st.newClient(conns, nil, "", "")
	return st, nil
}

// refKernel is the reference for the batch workloads, which are pure
// computation on one goroutine: a fixed stretch of what the simulator's
// engine does all day — heap pushes and pops, a map keyed by small
// integers, short-lived allocations.
type refKernel struct {
	h    intHeap
	seen map[int]int
	keep [][]int
}

func newRefKernel() *refKernel {
	k := &refKernel{seen: map[int]int{}, keep: make([][]int, 64)}
	for i := 0; i < 1024; i++ {
		heap.Push(&k.h, i*7919%1024)
	}
	return k
}

// run does one unit of reference work.
func (k *refKernel) run() {
	for i := 0; i < 256; i++ {
		x := heap.Pop(&k.h).(int)
		k.seen[x%512]++
		k.keep[i%64] = []int{x, i}
		heap.Push(&k.h, (x*31+i)%4096)
	}
}

// sliceRate runs the kernel for d and returns units per second.
func (k *refKernel) sliceRate(d time.Duration) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		k.run()
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

// speedSample is the host's speed (reference reached over nominal) read
// at a moment of the run.
type speedSample struct {
	at    time.Duration // since the run's start
	speed float64
}

// speedTrack is a run's speed samples in time order.
type speedTrack []speedSample

// at returns the host's speed at t, interpolated between the samples on
// either side of it.
func (s speedTrack) at(t time.Duration) float64 {
	i := sort.Search(len(s), func(i int) bool { return s[i].at >= t })
	switch {
	case len(s) == 0:
		return 1
	case i == 0:
		return s[0].speed
	case i == len(s):
		return s[len(s)-1].speed
	}
	a, b := s[i-1], s[i]
	return a.speed + (b.speed-a.speed)*float64(t-a.at)/float64(b.at-a.at)
}
