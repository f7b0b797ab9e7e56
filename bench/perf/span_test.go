package perf

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{Name: SpanClient, Launch: 7, Start: 0, End: 100},
		{Name: SpanTransport, Parent: SpanClient, Launch: 7, Start: 10, End: 90},
		{Name: SpanCluster, Parent: SpanTransport, Launch: 7, Start: 20, End: 80},
		{Name: SpanBackend, Parent: SpanCluster, Launch: 7, Start: 25, End: 75},
		{Name: SpanServer, Parent: SpanBackend, Launch: 7, Start: 30, End: 70},
		{Name: SpanAdmission, Parent: SpanServer, Launch: 7, Start: 30, End: 35},
		// Another launch must not leak into launch 7.
		{Name: SpanClient, Launch: 8, Start: 0, End: 50},
		{Name: SpanServer, Parent: SpanClient, Launch: 8, Start: 5, End: 45},
	}
	lts := SelfTimes(spans)
	if len(lts) != 2 || lts[0].Launch != 7 || lts[1].Launch != 8 {
		t.Fatalf("launches = %+v", lts)
	}
	want := map[string]int64{SpanClient: 20, SpanTransport: 20, SpanCluster: 10, SpanBackend: 10, SpanServer: 35, SpanAdmission: 5}
	var sum int64
	for name, w := range want {
		if got := lts[0].Self[name]; got != w {
			t.Errorf("self[%s] = %d, want %d", name, got, w)
		}
		sum += lts[0].Self[name]
	}
	if sum != lts[0].Dur[SpanClient] {
		t.Errorf("self times sum to %d, the client span is %d", sum, lts[0].Dur[SpanClient])
	}
	if got := lts[1].Self[SpanClient]; got != 10 {
		t.Errorf("launch 8 client self = %d, want 10", got)
	}
}

func TestSelfTimeSumsRepeatedSpansAndClipsChildren(t *testing.T) {
	// Two attempts (a 429 then a 200) under one client span; the second
	// server span overhangs its parent and must be clipped.
	spans := []Span{
		{Name: SpanClient, Launch: 1, Start: 0, End: 100},
		{Name: SpanServer, Parent: SpanClient, Launch: 1, Start: 10, End: 20},
		{Name: SpanServer, Parent: SpanClient, Launch: 1, Start: 60, End: 120},
	}
	lt := SelfTimes(spans)[0]
	if lt.Dur[SpanServer] != 70 {
		t.Errorf("server duration = %d, want 70", lt.Dur[SpanServer])
	}
	if lt.Self[SpanClient] != 100-10-40 {
		t.Errorf("client self = %d, want 50", lt.Self[SpanClient])
	}
}

func TestAnchorAdmissionNestsUnderLastServerSpan(t *testing.T) {
	spans := anchorAdmission([]Span{
		{Name: SpanServer, Parent: SpanClient, Launch: 1, Start: 10, End: 20},
		{Name: SpanServer, Parent: SpanClient, Launch: 1, Start: 60, End: 100},
		{Name: SpanAdmission, Parent: SpanServer, Launch: 1, Start: 0, End: 7},
		{Name: SpanAdmission, Parent: SpanServer, Launch: 2, Start: 0, End: 7}, // no server span: dropped
	})
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if a := spans[2]; a.Start != 60 || a.End != 67 {
		t.Errorf("admission span at [%d,%d], want [60,67]", a.Start, a.End)
	}
}

func TestWriteJSONLHasTheFiveFields(t *testing.T) {
	rec := NewRecorder(4)
	rec.Add(Span{Name: SpanClient, Launch: 3, Start: 1, End: 2})
	rec.Add(Span{Name: SpanServer, Parent: SpanClient, Launch: 3, Start: 1, End: 2})
	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := rec.WriteJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"name", "start_ns", "end_ns", "parent", "launch"} {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d lacks %q: %s", lines, k, sc.Text())
			}
		}
		if len(m) != 5 {
			t.Errorf("line %d has %d fields, want 5", lines, len(m))
		}
	}
	if lines != 2 {
		t.Errorf("wrote %d lines, want 2", lines)
	}
}
