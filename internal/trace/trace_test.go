package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"flep/internal/gpu"
	"flep/internal/sim"
)

func us(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }

func TestRuntimeAndFilter(t *testing.T) {
	var l Log
	l.Runtime(us(1), "submit", "k1", "id=1")
	l.Runtime(us(2), "dispatch", "k1", "")
	l.Runtime(us(3), "submit", "k2", "id=2")
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	subs := l.Filter("submit", 0)
	if len(subs) != 2 || subs[1].Kernel != "k2" {
		t.Fatalf("filter = %+v", subs)
	}
	if len(l.Filter("", 0)) != 3 {
		t.Fatal("empty filter should match all")
	}
}

func TestWriteText(t *testing.T) {
	var l Log
	l.Runtime(us(5), "preempt", "nn", "for=spmv")
	var buf bytes.Buffer
	if err := l.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"preempt", "nn", "for=spmv"} {
		if !strings.Contains(out, want) {
			t.Errorf("text log missing %q: %s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var l Log
	l.Add(Entry{Time: us(2), Source: "runtime", Kind: "submit", Kernel: "k"})
	buf, err := json.Marshal(l.Entries())
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	if err := json.Unmarshal(buf, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Kernel != "k" || entries[0].Time != us(2) {
		t.Fatalf("json roundtrip = %+v", entries)
	}
}

func TestDeviceObserverIntegration(t *testing.T) {
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	var l Log
	dev.Observer = l.DeviceObserver()
	prof := &gpu.KernelProfile{Name: "k", ThreadsPerCTA: 256, CTAsPerSM: 8, MemoryIntensity: 0.5, ContentionFloor: 0.8}
	if _, err := dev.Start(gpu.ExecConfig{Profile: prof, TotalTasks: 120, TaskCost: us(10), SMLo: 0, SMHi: 15}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	kinds := map[string]bool{}
	for _, e := range l.Entries() {
		kinds[e.Kind] = true
		if e.Source != "device" {
			t.Fatalf("source = %s", e.Source)
		}
	}
	for _, want := range []string{"launch", "resident", "complete"} {
		if !kinds[want] {
			t.Errorf("missing device event %s", want)
		}
	}
}

func TestGanttSimpleLifecycle(t *testing.T) {
	var l Log
	l.Add(Entry{Time: us(6), Source: "device", Kind: "resident", Kernel: "a", SMLo: 0, SMHi: 15})
	l.Add(Entry{Time: us(100), Source: "device", Kind: "complete", Kernel: "a", SMLo: 0, SMHi: 15})
	rows := l.Gantt()
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.Kernel != "a" || r.Start != us(6) || r.End != us(100) || r.SMLo != 0 || r.SMHi != 15 {
		t.Fatalf("row = %+v", r)
	}
}

func TestGanttSpatialShrink(t *testing.T) {
	var l Log
	l.Add(Entry{Time: us(6), Source: "device", Kind: "resident", Kernel: "a", SMLo: 0, SMHi: 15})
	// Spatial drain frees SMs [0,5): the drained event reports that range.
	l.Add(Entry{Time: us(50), Source: "device", Kind: "drained", Kernel: "a", SMLo: 0, SMHi: 5})
	l.Add(Entry{Time: us(200), Source: "device", Kind: "complete", Kernel: "a", SMLo: 5, SMHi: 15})
	rows := l.Gantt()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].SMHi != 15 || rows[0].End != us(50) {
		t.Fatalf("first span = %+v", rows[0])
	}
	if rows[1].SMLo != 5 || rows[1].Start != us(50) || rows[1].End != us(200) {
		t.Fatalf("second span = %+v", rows[1])
	}
}

func TestGanttTemporalStopAndResume(t *testing.T) {
	var l Log
	l.Add(Entry{Time: us(6), Source: "device", Kind: "resident", Kernel: "a", SMLo: 0, SMHi: 15})
	l.Add(Entry{Time: us(50), Source: "device", Kind: "drained", Kernel: "a", SMLo: 0, SMHi: 15})
	l.Add(Entry{Time: us(80), Source: "device", Kind: "resident", Kernel: "a", SMLo: 0, SMHi: 15})
	l.Add(Entry{Time: us(150), Source: "device", Kind: "complete", Kernel: "a", SMLo: 0, SMHi: 15})
	rows := l.Gantt()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].End != us(50) || rows[1].Start != us(80) {
		t.Fatalf("spans = %+v", rows)
	}
}

func TestGanttIgnoresRuntimeEntries(t *testing.T) {
	var l Log
	l.Runtime(us(1), "resident", "x", "")
	if len(l.Gantt()) != 0 {
		t.Fatal("runtime entries leaked into Gantt")
	}
}

func TestGanttOpenRowsClosed(t *testing.T) {
	var l Log
	l.Add(Entry{Time: us(6), Source: "device", Kind: "resident", Kernel: "open", SMLo: 0, SMHi: 15})
	rows := l.Gantt()
	if len(rows) != 1 || rows[0].Start != rows[0].End {
		t.Fatalf("open row not emitted zero-width: %+v", rows)
	}
}

// End-to-end: a spatial preemption run through the device yields a Gantt
// where spans never overlap on the same SM at the same time.
func TestGanttNoSMOverlap(t *testing.T) {
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	var l Log
	dev.Observer = l.DeviceObserver()
	victim := &gpu.KernelProfile{Name: "victim", ThreadsPerCTA: 256, CTAsPerSM: 8, MemoryIntensity: 0.5, ContentionFloor: 0.8}
	guest := &gpu.KernelProfile{Name: "guest", ThreadsPerCTA: 256, CTAsPerSM: 8, MemoryIntensity: 0.2, ContentionFloor: 0.9}
	e, err := dev.Start(gpu.ExecConfig{
		Profile: victim, TotalTasks: 12000, TaskCost: us(100),
		Persistent: true, L: 2, SMLo: 0, SMHi: 15,
		OnDrained: func(rem int) {
			if _, err := dev.Start(gpu.ExecConfig{
				Profile: guest, TotalTasks: 40, TaskCost: us(50),
				Persistent: true, L: 1, SMLo: 0, SMHi: 5,
			}); err != nil {
				t.Errorf("guest: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Schedule(us(1000), func() { e.Preempt(5) })
	eng.Run()
	rows := l.Gantt()
	for i, a := range rows {
		for _, b := range rows[i+1:] {
			if a.Kernel == b.Kernel {
				continue
			}
			smOverlap := a.SMLo < b.SMHi && b.SMLo < a.SMHi
			timeOverlap := a.Start < b.End && b.Start < a.End
			if smOverlap && timeOverlap {
				t.Fatalf("overlapping spans: %+v vs %+v", a, b)
			}
		}
	}
}

func TestLogLimitEvictsOldest(t *testing.T) {
	l := Log{Limit: 3}
	for i := 0; i < 10; i++ {
		l.Runtime(time.Duration(i), "submit", "k", "")
	}
	es := l.Entries()
	if len(es) != 3 {
		t.Fatalf("len = %d, want 3", len(es))
	}
	if es[0].Time != 7 || es[2].Time != 9 {
		t.Fatalf("kept wrong window: %+v", es)
	}
	if l.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", l.Dropped())
	}
}

// fullLimit is flepd's trace bound: a daemon's log is full after about a
// second of load and stays full from then on.
const fullLimit = 1 << 16

func fullLog() *Log {
	l := &Log{Limit: fullLimit}
	for i := 0; i < fullLimit; i++ {
		l.Runtime(time.Duration(i), "submit", "k", "")
	}
	return l
}

// TestAddToFullLogIsCheap: eviction from a full log overwrites the oldest
// slot instead of moving every kept entry, so the log keeps up with the
// event loop once it is full.
func TestAddToFullLogIsCheap(t *testing.T) {
	const extra = 10_000
	l := fullLog()
	start := time.Now()
	for i := fullLimit; i < fullLimit+extra; i++ {
		l.Runtime(time.Duration(i), "submit", "k", "")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("%d adds to a full %d-entry log took %v, want ≤ 500ms", extra, fullLimit, d)
	}
	es := l.Entries()
	if len(es) != fullLimit || l.Len() != fullLimit || l.Dropped() != extra {
		t.Fatalf("len %d, Len() %d, dropped %d; want %d, %d, %d", len(es), l.Len(), l.Dropped(), fullLimit, fullLimit, extra)
	}
	for i, e := range es {
		if want := time.Duration(extra + i); e.Time != want {
			t.Fatalf("entry %d at %v, want %v: not the newest %d, oldest first", i, e.Time, want, fullLimit)
		}
	}
}

func BenchmarkLogAddFull(b *testing.B) {
	l := fullLog()
	e := Entry{Source: "runtime", Kind: "submit", Kernel: "k"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Time = time.Duration(i)
		l.Add(e)
	}
}

// Merge's tie-break is (Time, Node, Device): the cluster gateway merges
// per-node streams whose entries collide on Time across nodes, and the
// global order must still be deterministic regardless of stream order.
func TestMergeNodeTieBreak(t *testing.T) {
	e := func(node string, dev int, at time.Duration, kind string) Entry {
		return Entry{Time: at, Node: node, Device: dev, Source: "runtime", Kind: kind}
	}
	streams := [][]Entry{
		{e("n1", 0, 10, "c"), e("n1", 1, 10, "d"), e("n1", 0, 40, "g")},
		{e("n0", 1, 10, "b"), e("n0", 0, 20, "e"), e("n0", 0, 40, "f")},
		{e("n0", 0, 10, "a")},
	}
	got := Merge(streams)
	want := []string{"a", "b", "c", "d", "e", "f", "g"}
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Kind != w {
			order := make([]string, len(got))
			for j := range got {
				order[j] = got[j].Kind
			}
			t.Fatalf("position %d: got %q, want %q (full order %v)", i, got[i].Kind, w, order)
		}
	}

	// Stream order is irrelevant.
	shuffled := [][]Entry{streams[2], streams[0], streams[1]}
	got2 := Merge(shuffled)
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("merge depends on stream order at %d: %+v vs %+v", i, got[i], got2[i])
		}
	}
}

// TestFilterKeepsTheLastMatches: on a log that has wrapped, Filter(kind,
// limit) is the last limit entries of the whole kind-filtered stream, all
// of it for a limit that is not positive, and its slice holds only the
// answer.
func TestFilterKeepsTheLastMatches(t *testing.T) {
	l := Log{Limit: 64}
	for i := 0; i < 150; i++ {
		l.Runtime(us(float64(i)), []string{"submit", "dispatch", "preempt"}[i%7%3], "k", "")
	}
	for _, kind := range []string{"", "submit", "preempt", "nosuch"} {
		var whole []Entry
		for _, e := range l.Entries() {
			if kind == "" || e.Kind == kind {
				whole = append(whole, e)
			}
		}
		for _, limit := range []int{-1, 0, 1, 5, 20, 64, 100} {
			want := whole
			if limit > 0 && limit < len(want) {
				want = want[len(want)-limit:]
			}
			got := l.Filter(kind, limit)
			if !reflect.DeepEqual(got, want) || cap(got) != len(want) {
				t.Errorf("Filter(%q, %d): %d entries (cap %d), want the last %d of %d",
					kind, limit, len(got), cap(got), len(want), len(whole))
			}
		}
	}
}
