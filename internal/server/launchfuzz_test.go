package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// statusFamilies is the outcome family each answer of a lone launch to a
// fresh server files, by its HTTP status. A 422 is a grid too large for
// the device; a 504, a stage parked on a prerequisite that never comes.
var statusFamilies = map[int][]outcome{
	http.StatusOK:                  {outCompleted},
	http.StatusBadRequest:          {outRejectedInvalid},
	http.StatusTooManyRequests:     {outRejectedFull, outRejectedShed, outRejectedDepFull},
	http.StatusUnprocessableEntity: {outSubmitError},
	http.StatusGatewayTimeout:      {outTimedOut},
}

// serveStatus reads /v1/status through h.
func serveStatus(t *testing.T, h http.Handler) Status {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode status %q: %v", rec.Body.Bytes(), err)
	}
	return st
}

// FuzzLaunchRequest feeds launch bodies through the daemon's own handler —
// decodeLaunch and admitLaunch, on a fresh in-process Server that loads VA
// — and holds every answer to the ledger: nothing panics, each answer files
// exactly one outcome of its status's family, and once the server is at
// rest /v1/status closes Enqueued == Completed + SubmitErrors.
func FuzzLaunchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"client":"a","benchmark":"VA","class":"large","priority":1}`,
		`{"client":"b","benchmark":"VA","class":"small","priority":2,"deadline_ms":5}`,
		`{"client":"c","benchmark":"VA","class":"trivial","priority":3,"weight":2}`,
		// Its working set once wrapped negative, fit the device and never finished.
		`{"client":"d","benchmark":"VA","class":"small","tasks_override":9223372036854775807}`,
		`{"benchmark":"VA","class":"small","deadline_ms":9223372036855}`,
		`{"benchmark":"VA","class":"small","priority":-1}`,
		`{"benchmark":"SPMV","class":"small"}`,
		`{"benchmark":"VA","class":"small","graph":"` + strings.Repeat("g", maxDepName+1) + `","stage":"s","stages":1}`,
		`{"benchmark":"VA","class":"small","graph":"g","stage":"b","stages":2,"after":["a"]}`,
	} {
		f.Add([]byte(seed))
	}
	sys := testSystem(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := NewWithSystem(sys.Clone(), Config{Benchmarks: []string{"VA"}, RequestTimeout: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.Shutdown(context.Background()); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		}()
		h := s.Handler()
		before := serveStatus(t, h).Counters
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/launch", bytes.NewReader(body)))
		after := serveStatus(t, h).Counters
		was, is := before.slots(), after.slots()
		var filed []outcome
		for o := outCompleted; o < numOutcomes; o++ {
			switch d := *is[o] - *was[o]; {
			case d == 1:
				filed = append(filed, o)
			case d != 0:
				t.Fatalf("%q: %s moved by %d", body, outcomes[o].key, d)
			}
		}
		want := statusFamilies[rec.Code]
		if len(filed) != 1 || !slices.Contains(want, filed[0]) {
			t.Fatalf("%q answered %d %q and filed %v, want one of %v", body, rec.Code, rec.Body.Bytes(), filed, want)
		}
		for deadline := time.Now().Add(5 * time.Second); ; {
			c := serveStatus(t, h).Counters
			if c.Enqueued == c.Completed+c.SubmitErrors {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%q: not at rest after 5s: %+v", body, c)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
