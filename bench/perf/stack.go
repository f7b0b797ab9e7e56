package perf

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"flep/internal/cluster"
	"flep/internal/server"
)

// launchHeader carries a sampled launch's span identifier from the
// generator through every hop, so spans of one launch share it.
const launchHeader = "X-Flepperf-Launch"

// Fixed loopback ports for gateway_2node. The gateway's hash ring is
// built over node addresses, so ephemeral ports would reshuffle which
// node owns which session from run to run; a taken port fails the run
// instead of silently moving the ring.
const (
	gatewayAddr = "127.0.0.1:17460"
	node0Addr   = "127.0.0.1:17461"
	node1Addr   = "127.0.0.1:17462"
)

// stack is one assembled system under test: the servers, what fronts
// them, and how a client reaches them.
type stack struct {
	nodes   []*server.Server
	nodeIDs []string         // gateway node ids ("n0", "n1"); {""} for a single server
	gateway *cluster.Gateway // nil without a gateway
	// front is the handler a client's launches enter (the gateway's, or
	// the single node's), wrapped for tracing when a recorder is given.
	front http.Handler
	// baseURL is set when front is served over loopback TCP; empty means
	// the generator calls front.ServeHTTP directly.
	baseURL string
	// client issues the generator's requests (nil in-process).
	client *http.Client

	httpServers []*http.Server
	serving     sync.WaitGroup // the Serve goroutines of httpServers
	transports  []*http.Transport
	stops       []func() // run by close once the listeners are down
}

type launchKey struct{}

// launchID extracts a sampled launch's id from a request header.
func launchID(r *http.Request) uint64 {
	v := r.Header.Get(launchHeader)
	if v == "" {
		return 0
	}
	id, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// spanHandler records one span per sampled request around next. The id
// also goes into the request context, which the gateway's proxied
// request inherits, so spanTripper can find it on the backend hop.
func spanHandler(rec *Recorder, name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := launchID(r)
		if id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), launchKey{}, id))
		start := rec.Now()
		next.ServeHTTP(w, r)
		rec.Add(Span{Name: name, Parent: parent, Launch: id, Start: start, End: rec.Now()})
	})
}

// spanTripper records one span per sampled round trip, from the request
// leaving to the response body being closed. On the gateway's backend
// hop the id arrives through the context (the gateway forwards no custom
// headers) and is re-attached as a header for the node.
type spanTripper struct {
	rec          *Recorder
	name, parent string
	next         http.RoundTripper
}

func (t *spanTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	id := launchID(r)
	if id == 0 {
		if v, ok := r.Context().Value(launchKey{}).(uint64); ok {
			id = v
			r = r.Clone(r.Context())
			r.Header.Set(launchHeader, strconv.FormatUint(id, 10))
		}
	}
	if id == 0 {
		return t.next.RoundTrip(r)
	}
	start := t.rec.Now()
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, id: id, start: start}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t     *spanTripper
	id    uint64
	start int64
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.t.rec.Add(Span{Name: b.t.name, Parent: b.t.parent, Launch: b.id, Start: b.start, End: b.t.rec.Now()})
	return err
}

// newTransport returns a keep-alive transport sized for conns clients.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxIdleConns:        conns * 2,
		MaxIdleConnsPerHost: conns * 2,
		IdleConnTimeout:     time.Minute,
	}
}

// serve starts an HTTP server for h on a loopback address ("127.0.0.1:0"
// picks a free port) and returns the address it bound.
func (st *stack) serve(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("listen %s: %w (flepperf needs this port free; it never falls back to another)", addr, err)
	}
	srv := &http.Server{Handler: h}
	st.httpServers = append(st.httpServers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		// Serve always returns a non-nil error; ErrServerClosed is the
		// normal end, anything else surfaces as failed requests.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// buildSingle assembles one server.Server. With tcp it listens on an
// ephemeral loopback port and clients use conns keep-alive connections;
// without, clients call the handler directly. rec wraps the handler and
// the client transport with span recording.
func buildSingle(cfg server.Config, tcp bool, conns int, rec *Recorder) (*stack, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	st := &stack{nodes: []*server.Server{s}, nodeIDs: []string{""}}
	st.front = s.Handler()
	if !tcp {
		if rec != nil {
			st.front = spanHandler(rec, SpanServer, SpanClient, st.front)
		}
		return st, nil
	}
	if rec != nil {
		st.front = spanHandler(rec, SpanServer, SpanTransport, st.front)
	}
	addr, err := st.serve("127.0.0.1:0", st.front)
	if err != nil {
		st.close()
		return nil, err
	}
	st.baseURL = "http://" + addr
	st.client = st.newClient(conns, rec, SpanTransport, SpanClient)
	return st, nil
}

// newClient builds an HTTP client over a fresh keep-alive transport,
// span-wrapped when rec is set.
func (st *stack) newClient(conns int, rec *Recorder, name, parent string) *http.Client {
	tr := newTransport(conns)
	st.transports = append(st.transports, tr)
	if rec == nil {
		return &http.Client{Transport: tr}
	}
	return &http.Client{Transport: &spanTripper{rec: rec, name: name, parent: parent, next: tr}}
}

// buildGateway assembles two servers behind a cluster.Gateway, all on
// fixed loopback ports, and waits until the gateway routes to both.
func buildGateway(cfg server.Config, conns int, rec *Recorder) (*stack, error) {
	st := &stack{nodeIDs: []string{"n0", "n1"}}
	for _, addr := range []string{node0Addr, node1Addr} {
		s, err := server.New(cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, s)
		h := s.Handler()
		if rec != nil {
			h = spanHandler(rec, SpanServer, SpanBackend, h)
		}
		if _, err := st.serve(addr, h); err != nil {
			st.close()
			return nil, err
		}
	}
	gw, err := cluster.New(cluster.Config{
		Nodes:  []string{node0Addr, node1Addr},
		Client: st.newClient(conns, rec, SpanBackend, SpanCluster),
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.gateway = gw
	gw.Start()
	st.front = gw.Handler()
	if rec != nil {
		st.front = spanHandler(rec, SpanCluster, SpanTransport, st.front)
	}
	if _, err := st.serve(gatewayAddr, st.front); err != nil {
		st.close()
		return nil, err
	}
	st.baseURL = "http://" + gatewayAddr
	st.client = st.newClient(conns, rec, SpanTransport, SpanClient)
	deadline := time.Now().Add(5 * time.Second)
	for gw.ReadyNodes() < len(st.nodes) {
		if time.Now().After(deadline) {
			st.close()
			return nil, errors.New("gateway: nodes not ready after 5s")
		}
		time.Sleep(time.Millisecond)
	}
	return st, nil
}

// close stops everything the stack started and waits for it: HTTP
// listeners first, then the gateway's health loop, then each server's
// event loop (a drain, so queued launches still complete).
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, tr := range st.transports {
		tr.CloseIdleConnections()
	}
	for _, srv := range st.httpServers {
		// A listener that will not shut down in 10s is closed hard; the
		// run's ledger check has already happened by then.
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
	}
	st.serving.Wait()
	for _, stop := range st.stops {
		stop()
	}
	if st.gateway != nil {
		st.gateway.Close()
	}
	for _, s := range st.nodes {
		// Shutdown only errors when the drain outlives ctx; the process
		// exits right after, so there is nothing further to release.
		_ = s.Shutdown(ctx)
	}
}
