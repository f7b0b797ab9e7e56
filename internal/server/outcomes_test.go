package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// wireKeyOf returns the one JSON key that reads 1 when v — a zero wire
// struct with one slot set — is marshalled.
func wireKeyOf(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	found := ""
	for k, f := range fields {
		if f == float64(1) {
			if found != "" {
				t.Fatalf("one slot set, two fields moved: %s and %s", found, k)
			}
			found = k
		}
	}
	return found
}

// TestOutcomeTableIsConsistent checks the outcomes table against itself
// and against the two wire structs bound to it: every outcome has a
// status key and a metric label, no two share one, a refusal answers 4xx
// or 5xx, and each slot is the field whose JSON key the table names.
func TestOutcomeTableIsConsistent(t *testing.T) {
	keys, labels := map[string]outcome{}, map[string]outcome{}
	for o := outEnqueued; o < numOutcomes; o++ {
		row := outcomes[o]
		if row.key == "" || row.label == "" {
			t.Errorf("outcome %d has no key or no label: %+v", o, row)
		}
		if prev, dup := keys[row.key]; dup {
			t.Errorf("outcomes %d and %d share the key %q", prev, o, row.key)
		}
		if prev, dup := labels[row.label]; dup {
			t.Errorf("outcomes %d and %d share the label %q", prev, o, row.label)
		}
		keys[row.key], labels[row.label] = o, o
		if row.refusal != 0 && (row.refusal < 400 || row.refusal > 599) {
			t.Errorf("%s refuses with status %d", row.key, row.refusal)
		}
		if row.refusal != 0 && row.opensSession {
			t.Errorf("%s is a refusal and may open a session", row.key)
		}

		var c counters
		*c.slots()[o] = 1
		if got := wireKeyOf(t, c); got != row.key {
			t.Errorf("counters.slots()[%s] is the field %q", row.key, got)
		}
		var sn SessionSnapshot
		*sn.slots()[o] = 1
		want := row.key
		if o == outEnqueued {
			want = "launches" // what a session calls its accepted launches
		}
		if got := wireKeyOf(t, sn); got != want {
			t.Errorf("SessionSnapshot.slots()[%s] is the field %q, want %q", row.key, got, want)
		}
	}
	if outcomes[outUnset].key != "" {
		t.Errorf("the zero outcome has a row: %+v", outcomes[outUnset])
	}

	refusals := map[outcome]int{
		outRejectedInvalid:  http.StatusBadRequest,
		outRejectedDraining: http.StatusServiceUnavailable,
		outDepCanceled:      http.StatusConflict,
		outRejectedFull:     http.StatusTooManyRequests,
		outRejectedShed:     http.StatusTooManyRequests,
		outRejectedDepFull:  http.StatusTooManyRequests,
	}
	opens := map[outcome]bool{outEnqueued: true, outTimedOut: true, outCanceled: true}
	for o := outEnqueued; o < numOutcomes; o++ {
		if got := outcomes[o].refusal; got != refusals[o] {
			t.Errorf("%s refuses with %d, want %d", outcomes[o].key, got, refusals[o])
		}
		if got := outcomes[o].opensSession; got != opens[o] {
			t.Errorf("%s opens a session: %v, want %v", outcomes[o].key, got, opens[o])
		}
	}
}

// TestCountingTheZeroOutcomePanics keeps the guard a forgotten outcome
// runs into.
func TestCountingTheZeroOutcomePanics(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, o := range []outcome{outUnset, numOutcomes, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("counting outcome %d did not panic", o)
				}
			}()
			s.mu.Lock()
			defer s.mu.Unlock()
			s.countLocked(o, "x")
		}()
	}
}
