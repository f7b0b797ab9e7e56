package perf

import (
	"strings"
	"testing"

	"flep/internal/obs"
)

// closedLedger is a node at rest whose three views agree, and the client
// tallies that match it.
func closedLedger() ([]nodeLedger, genResult) {
	counters := map[string]int64{"enqueued": 10, "completed": 9, "submit_errors": 1, "slo_attained": 4, "slo_missed": 1}
	status := map[string]int64{}
	for k, v := range counters {
		status[k] = v
	}
	metrics := obs.Snapshot{
		`flep_server_launches_total{outcome="enqueued"}`:     10,
		`flep_server_launches_total{outcome="completed"}`:    9,
		`flep_server_launches_total{outcome="submit_error"}`: 1,
		`flep_slo_attained_total`:                            4,
		`flep_slo_missed_total`:                              1,
	}
	nodes := []nodeLedger{{node: "n0", counters: counters, status: status, exactlyOnceOK: true, metrics: metrics}}
	res := genResult{ok: 9, okPerNode: map[string]int64{"n0": 9}, seen: []seenResult{
		{node: "n0", id: 1, sane: true}, {node: "n0", id: 2, sane: true},
	}}
	return nodes, res
}

func failed(cs []Check) []string {
	var out []string
	for _, c := range cs {
		if !c.OK {
			out = append(out, c.Name)
		}
	}
	return out
}

func TestClosedLedgerPasses(t *testing.T) {
	nodes, res := closedLedger()
	if f := failed(checkLedger(nodes, res)); len(f) != 0 {
		t.Fatalf("a closed ledger failed %v", f)
	}
}

func TestBrokenLedgerFails(t *testing.T) {
	for name, c := range map[string]struct {
		breakIt func(nodes []nodeLedger, res *genResult)
		want    string
	}{
		"a launch lost between enqueue and completion": {
			func(n []nodeLedger, _ *genResult) { n[0].counters["enqueued"] = 11 }, "ledger_closed[n0]"},
		"the node says exactly-once is violated": {
			func(n []nodeLedger, _ *genResult) { n[0].exactlyOnceOK = false }, "exactly_once_ok[n0]"},
		"a 200 the node never completed": {
			func(_ []nodeLedger, r *genResult) { r.ok, r.okPerNode["n0"] = 10, 10 }, "client_200s"},
		"metrics drift from status": {
			func(n []nodeLedger, _ *genResult) {
				n[0].metrics[`flep_server_launches_total{outcome="completed"}`] = 8
			}, "metrics_reconcile[n0]"},
		"slo metrics drift from status": {
			func(n []nodeLedger, _ *genResult) { n[0].metrics[`flep_slo_missed_total`] = 0 }, "metrics_reconcile[n0]"},
		"an id delivered twice": {
			func(_ []nodeLedger, r *genResult) { r.seen = append(r.seen, seenResult{node: "n0", id: 2, sane: true}) }, "result_ids_unique"},
		"a result that finished before it started": {
			func(_ []nodeLedger, r *genResult) { r.seen[0].sane = false }, "finished_after_submitted"},
	} {
		nodes, res := closedLedger()
		c.breakIt(nodes, &res)
		f := failed(checkLedger(nodes, res))
		if !strings.Contains(strings.Join(f, " "), c.want) {
			t.Errorf("%s: failed checks %v, want %s among them", name, f, c.want)
		}
	}
}

func TestOutcomeIncorrectWhenAnyCheckFails(t *testing.T) {
	o := &Outcome{Checks: []Check{{Name: "a", OK: true}, {Name: "b", OK: false, Detail: "broken"}}}
	if o.Correct() {
		t.Error("an outcome with a failed check reads correct")
	}
	o.Checks[1].OK = true
	if !o.Correct() {
		t.Error("an outcome with every check passing reads incorrect")
	}
}
