package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flep/internal/server"
	"flep/internal/trace"
)

// traceLogLimit is the entry bound of a traced daemon's log.
const traceLogLimit = 65536

// traceBody reads a /v1/trace answer whole.
func traceBody(t *testing.T, c *http.Client, base, query string) []byte {
	t.Helper()
	resp, err := c.Get(base + "/v1/trace" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/v1/trace%s: %d, %v\n%s", base, query, resp.StatusCode, err, body)
	}
	return body
}

// lastN is the answer a daemon gave before limits reached its log: the
// whole (kind-filtered) stream, of which WriteTrace kept the last n.
func lastN(entries []trace.Entry, n int) []byte {
	if n > 0 && n < len(entries) {
		entries = entries[len(entries)-n:]
	}
	rec := httptest.NewRecorder()
	server.WriteJSON(rec, http.StatusOK, entries)
	return rec.Body.Bytes()
}

// traceRound runs four FFS tenants of the given task count at once on each
// server: every rotation among them logs an epoch expiry, a preempt, the
// drain and the next tenant's dispatch. The four are queued behind a pause,
// so they overlap however the host schedules their requests.
func traceRound(t *testing.T, tasks int, shards ...*server.Server) {
	t.Helper()
	var wg sync.WaitGroup
	for _, s := range shards {
		if err := s.Pause(); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for prio := 1; prio <= 4; prio++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				body := fmt.Sprintf(`{"client":"fill%d","benchmark":"MM","priority":%d,"tasks_override":%d}`, prio, prio, tasks)
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/launch", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("fill launch: %d %s", rec.Code, rec.Body)
				}
			}()
		}
	}
	for _, s := range shards {
		waitFor(t, "four fill launches queued", func() bool { return s.Status().QueueLen == 4 })
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// fillTrace runs rounds until every server's log is full, then one more so
// that each has wrapped.
func fillTrace(t *testing.T, shards ...*server.Server) {
	t.Helper()
	for round, full := 0, false; !full; round++ {
		if round == 100 {
			t.Fatalf("trace logs not full after %d rounds", round)
		}
		full = true
		for _, s := range shards {
			full = full && s.Status().TraceEntries == traceLogLimit
		}
		traceRound(t, 400000, shards...)
	}
}

// bytesPerCall is what one call of read allocates, averaged over runs.
func bytesPerCall(read func()) uint64 {
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		read()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// countingTransport keeps what each node sent the gateway for /v1/trace.
type countingTransport struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.URL.Path != "/v1/trace" {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.mu.Lock()
	c.bodies = append(c.bodies, body)
	c.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, err
}

// TestTraceLimitCopiesOnlyTheAnswer: /v1/trace?limit=N copies only the
// answer. A server's log copies the last N matching entries on its loop, a
// fleet asks each shard for N, a gateway forwards the limit to each node,
// and the answer is byte for byte the one copying the whole log and then
// keeping its last N gave. On full, wrapped logs a read of ten entries
// allocates a few kilobytes per shard where a whole copy is megabytes,
// and each node sends the gateway ten entries.
func TestTraceLimitCopiesOnlyTheAnswer(t *testing.T) {
	cfg := server.Config{Policy: "ffs", Trace: true, Benchmarks: []string{"VA", "MM"}}
	shutdown := func(stop func(context.Context) error) {
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := stop(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
	}
	single, err := server.NewWithSystem(testSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	shutdown(single.Shutdown)
	fleet, err := server.NewFleetWithSystem(testSystem(t), server.FleetConfig{Config: cfg, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	shutdown(fleet.Shutdown)
	n0, ts0, _ := startNode(t, cfg)
	n1, ts1, _ := startNode(t, cfg)
	counter := &countingTransport{}
	_, gw := startGateway(t, Config{Nodes: []string{ts0.URL, ts1.URL}, Client: &http.Client{Transport: counter}})

	tiers := []struct {
		name string
		url  string
	}{
		{"server", serveWire(t, single.Handler())},
		{"fleet", serveWire(t, fleet.Handler())},
		{"gateway", gw.URL},
	}
	c := &http.Client{}
	// sameAsWhole holds each (kind, limit) answer of every tier to the
	// last limit entries of that tier's whole kind-filtered stream.
	sameAsWhole := func(kinds, limits []string) {
		t.Helper()
		for _, tier := range tiers {
			for _, kind := range kinds {
				q := url.Values{}
				if kind != "" {
					q.Set("kind", kind)
				}
				var whole []trace.Entry
				if err := json.Unmarshal(traceBody(t, c, tier.url, "?"+q.Encode()), &whole); err != nil {
					t.Fatal(err)
				}
				for _, limit := range limits {
					q.Set("limit", limit)
					got := traceBody(t, c, tier.url, "?"+q.Encode())
					n, _ := strconv.Atoi(limit)
					if want := lastN(whole, n); !bytes.Equal(got, want) {
						t.Errorf("%s ?%s: %d bytes differ from the last %s of the whole stream (%d bytes)",
							tier.name, q.Encode(), len(got), limit, len(want))
					}
				}
			}
		}
	}
	shards := []*server.Server{single, fleet.Shard(0), fleet.Shard(1), n0.Shard(0), n1.Shard(0)}
	limits := []string{"1", "10", "1000", "70000", "0", "-3", "x"}
	// Empty logs, then a few hundred entries each: every kind, every limit.
	kinds := []string{"", "submit", "epoch", "nosuch"}
	sameAsWhole(kinds, limits)
	traceRound(t, 20000, shards...)
	sameAsWhole(kinds, limits)
	// Full, wrapped logs: kinds whose whole streams are short.
	fillTrace(t, shards...)
	sameAsWhole([]string{"submit", "nosuch"}, limits)

	// A whole copy of one full log is 65,536 entries of about a hundred
	// bytes; ten entries and the loop hop fit in a few kilobytes.
	const perShard = 16 << 10
	if b := bytesPerCall(func() { single.TraceEntries("", 10) }); b > perShard {
		t.Errorf("server: a read of 10 entries allocates %d bytes, want at most %d", b, perShard)
	}
	if b := bytesPerCall(func() { fleet.TraceEntries("", 10) }); b > 2*perShard {
		t.Errorf("2-shard fleet: a read of 10 entries allocates %d bytes, want at most %d", b, 2*perShard)
	}
	counter.mu.Lock()
	counter.bodies = nil
	counter.mu.Unlock()
	traceBody(t, c, gw.URL, "?limit=10")
	counter.mu.Lock()
	defer counter.mu.Unlock()
	if len(counter.bodies) != 2 {
		t.Fatalf("the gateway read %d node traces, want 2", len(counter.bodies))
	}
	for i, body := range counter.bodies {
		var entries []trace.Entry
		if err := json.Unmarshal(body, &entries); err != nil || len(entries) != 10 {
			t.Errorf("node answer %d to the gateway's ?limit=10: %d entries in %d bytes, %v; want 10", i, len(entries), len(body), err)
		}
	}
}
