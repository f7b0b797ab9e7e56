package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"flep/internal/obs"
)

// Check is one correctness check's verdict. Any failed check makes the
// run incorrect and flepperf exit non-zero.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

func check(name string, ok bool, format string, args ...any) Check {
	c := Check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	return c
}

// nodeLedger is one server's end-of-run accounting, read three ways:
// Counters(), GET /v1/status and GET /metrics.
type nodeLedger struct {
	node          string
	counters      map[string]int64
	status        map[string]int64
	exactlyOnceOK bool
	metrics       obs.Snapshot
}

// statusToOutcome pairs each /v1/status counter with the outcome label of
// flep_server_launches_total that must carry the same value.
var statusToOutcome = [][2]string{
	{"enqueued", "enqueued"},
	{"completed", "completed"},
	{"submit_errors", "submit_error"},
	{"rejected_queue_full", "rejected_queue_full"},
	{"rejected_draining", "rejected_draining"},
	{"rejected_invalid", "rejected_invalid"},
	{"rejected_best_effort_shed", "rejected_best_effort_shed"},
	{"timed_out", "timed_out"},
	{"canceled", "canceled"},
	{"dep_canceled", "dep_canceled"},
	{"rejected_dep_table_full", "rejected_dep_table_full"},
}

// statusToFamily does the same for the SLO counters, which have families
// of their own.
var statusToFamily = [][2]string{
	{"slo_attained", "flep_slo_attained_total"},
	{"slo_missed", "flep_slo_missed_total"},
}

// doInproc sends one request straight into a handler, with no sockets,
// and returns the status; the response is left in w.
func doInproc(h http.Handler, w *inprocWriter, method, path string, body []byte) int {
	req, err := http.NewRequest(method, "http://inproc"+path, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	w.reset()
	h.ServeHTTP(w, req)
	return w.code
}

// getInproc performs a GET against a handler with no sockets.
func getInproc(h http.Handler, path string) (int, []byte) {
	w := &inprocWriter{hdr: http.Header{}}
	return doInproc(h, w, http.MethodGet, path, nil), w.buf.Bytes()
}

// readLedger snapshots one node through its public surfaces.
func readLedger(node string, counters map[string]int64, h http.Handler) (nodeLedger, error) {
	l := nodeLedger{node: node, counters: counters}
	code, body := getInproc(h, "/v1/status")
	if code != http.StatusOK {
		return l, fmt.Errorf("node %q: GET /v1/status: status %d", node, code)
	}
	var st struct {
		Counters      map[string]int64 `json:"counters"`
		ExactlyOnceOK bool             `json:"exactly_once_ok"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return l, fmt.Errorf("node %q: decode /v1/status: %w", node, err)
	}
	l.status, l.exactlyOnceOK = st.Counters, st.ExactlyOnceOK
	code, body = getInproc(h, "/metrics")
	if code != http.StatusOK {
		return l, fmt.Errorf("node %q: GET /metrics: status %d", node, code)
	}
	snap, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		return l, fmt.Errorf("node %q: parse /metrics: %w", node, err)
	}
	l.metrics = snap
	return l, nil
}

// checkLedger holds a finished serving run to the system's exact claims:
// every node's ledger closes, the clients' 200s equal the nodes'
// completions, decoded results are unique and sane, and /metrics tells
// the same story as /v1/status.
func checkLedger(nodes []nodeLedger, res genResult) []Check {
	var out []Check
	var completed int64
	for _, n := range nodes {
		c := n.counters
		completed += c["completed"]
		out = append(out,
			check("ledger_closed["+n.node+"]", c["enqueued"] == c["completed"]+c["submit_errors"],
				"enqueued %d != completed %d + submit_errors %d", c["enqueued"], c["completed"], c["submit_errors"]),
			check("exactly_once_ok["+n.node+"]", n.exactlyOnceOK, "/v1/status reports exactly_once_ok=false"),
			check("node_200s["+n.node+"]", res.okPerNode[n.node] == c["completed"],
				"clients saw %d 200s from this node, it completed %d", res.okPerNode[n.node], c["completed"]))
		ok, detail := true, ""
		for _, pair := range statusToOutcome {
			key, outcome := pair[0], pair[1]
			got := int64(n.metrics.SumMatching("flep_server_launches_total", "outcome", outcome))
			if got != n.status[key] || n.status[key] != c[key] {
				ok = false
				detail = fmt.Sprintf("%s: /metrics %d, /v1/status %d, Counters() %d", key, got, n.status[key], c[key])
				break
			}
		}
		for _, pair := range statusToFamily {
			key, family := pair[0], pair[1]
			if got := int64(n.metrics.SumFamily(family)); ok && got != n.status[key] {
				ok = false
				detail = fmt.Sprintf("%s: /metrics %d, /v1/status %d", key, got, n.status[key])
			}
		}
		out = append(out, check("metrics_reconcile["+n.node+"]", ok, "%s", detail))
	}
	out = append(out, check("client_200s", res.ok == completed,
		"clients saw %d 200s, nodes completed %d", res.ok, completed))

	type key struct {
		node       string
		device, id int
	}
	uniq := make(map[key]struct{}, len(res.seen))
	dups, insane := 0, 0
	for _, s := range res.seen {
		k := key{s.node, s.device, s.id}
		if _, dup := uniq[k]; dup {
			dups++
		}
		uniq[k] = struct{}{}
		if !s.sane {
			insane++
		}
	}
	out = append(out,
		check("result_ids_unique", dups == 0, "%d of %d decoded results repeat a (node, device, id)", dups, len(res.seen)),
		check("finished_after_submitted", insane == 0, "%d decoded results finished before they were submitted", insane))
	return out
}
