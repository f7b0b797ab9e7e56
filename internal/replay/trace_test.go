package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"flep/internal/core"
)

func testHeader() Header {
	return Header{Source: SourceFlepd, Options: core.Options{Policy: "hpf"}, Devices: 1, Benchmarks: []string{"MM", "VA"}}
}

func testRecord(i int) Record {
	return Record{
		At: int64(i) * 1000, Step: int64(i), Device: 0,
		Client: fmt.Sprintf("tenant-%d", i%2), Bench: "VA", Class: "small",
		Priority: 1 + i%2, Grid: 100, Block: 256, Te: 12345,
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	rec, err := NewRecorder(path, testHeader(), RecorderOptions{})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if !rec.Record(testRecord(i)) {
			t.Fatalf("record %d dropped", i)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	tr, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if tr.Header.Source != SourceFlepd || tr.Header.Policy != "hpf" || tr.Header.TraceVersion != Version {
		t.Fatalf("header mangled: %+v", tr.Header)
	}
	if len(tr.Records) != n {
		t.Fatalf("loaded %d records, want %d", len(tr.Records), n)
	}
	for i, r := range tr.Records {
		if r.Seq != int64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.At != int64(i)*1000 || r.Step != int64(i) || r.Te != 12345 {
			t.Fatalf("record %d fields mangled: %+v", i, r)
		}
	}
}

// Rotation mid-burst: a tiny segment bound forces rotation while records
// are streaming in; Load must stitch path.1..N plus the live segment
// back into one contiguous Seq stream with a header per segment.
func TestRecorderRotationMidBurst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	rec, err := NewRecorder(path, testHeader(), RecorderOptions{RotateBytes: 512})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if !rec.Record(testRecord(i)) {
			t.Fatalf("record %d dropped", i)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs, _ := filepath.Glob(path + ".*")
	if len(segs) < 2 {
		t.Fatalf("expected multiple rotated segments, got %v", segs)
	}
	// Every rotated segment must open with its own valid header.
	for _, seg := range segs {
		if _, err := LoadFile(seg); err != nil {
			t.Fatalf("rotated segment %s unreadable: %v", seg, err)
		}
	}

	tr, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(tr.Records) != n {
		t.Fatalf("merged %d records across segments, want %d", len(tr.Records), n)
	}
	for i, r := range tr.Records {
		if r.Seq != int64(i+1) {
			t.Fatalf("merged stream not contiguous at %d: seq %d", i, r.Seq)
		}
	}
}

// TestLoadRefusesSegmentsWithDisagreeingHeaders: every segment of a
// rotated recording opens with the header it was recorded under, so a
// segment whose header says another policy or device count comes from
// another recording. Load stitched it in under the first segment's header.
func TestLoadRefusesSegmentsWithDisagreeingHeaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	rec, err := NewRecorder(path, testHeader(), RecorderOptions{RotateBytes: 512})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	for i := 0; i < 20; i++ {
		rec.Record(testRecord(i))
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("Load of the recording: %v", err)
	}
	seg := path + ".2"
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	first, records, _ := bytes.Cut(data, []byte("\n"))
	other, err := parseHeader(first)
	if err != nil {
		t.Fatal(err)
	}
	other.Policy, other.Devices = "edf", 2
	line, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, append(append(line, '\n'), records...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "header differs") {
		t.Fatalf("Load with %s recorded under another header: err %v, want the header refused", seg, err)
	}
}

// Flush (the daemon's drain hook) must make everything recorded so far
// readable even though the recorder is still open — a SIGTERM'd flepd
// leaves a complete trace behind before Close ever runs.
func TestRecorderFlushOnDrainMakesTraceReadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	rec, err := NewRecorder(path, testHeader(), RecorderOptions{})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	defer rec.Close()
	const n = 7
	for i := 0; i < n; i++ {
		rec.Record(testRecord(i))
	}
	// Before the flush the records sit in the 64 KiB buffer.
	if tr, err := LoadFile(path); err == nil && len(tr.Records) == n {
		t.Skip("records hit disk without a flush; buffer semantics changed")
	}
	if err := rec.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	tr, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile after flush: %v", err)
	}
	if len(tr.Records) != n {
		t.Fatalf("flushed trace has %d records, want %d", len(tr.Records), n)
	}
}

func TestRecorderDropsAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	rec, err := NewRecorder(path, testHeader(), RecorderOptions{})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	rec.Record(testRecord(0))
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rec.Record(testRecord(1)) {
		t.Fatal("record after Close was accepted")
	}
	tr, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(tr.Records) != 1 {
		t.Fatalf("trace has %d records, want 1", len(tr.Records))
	}
}

func TestUnknownVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.trace")
	content := `{"flep_trace":true,"version":99,"source":"flepd"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(path)
	if err == nil {
		t.Fatal("version-99 trace loaded")
	}
	if !strings.Contains(err.Error(), "unsupported trace version 99") ||
		!strings.Contains(err.Error(), fmt.Sprintf("version %d", Version)) {
		t.Fatalf("error does not identify the version mismatch: %v", err)
	}
}

func TestNonTraceRejected(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty.trace":   "",
		"text.trace":    "hello world\n",
		"json.trace":    `{"some":"jsonl","but":"not a trace"}` + "\n",
		"nomagic.trace": `{"flep_trace":false,"version":1}` + "\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(path); err == nil {
			t.Fatalf("%s loaded as a trace", name)
		}
	}
}

// A crash mid-write leaves a partial final line; every complete record
// before it must load, and the tail is dropped silently.
func TestTruncatedFinalLineTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.trace")
	rec, err := NewRecorder(path, testHeader(), RecorderOptions{})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	for i := 0; i < 3; i++ {
		rec.Record(testRecord(i))
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Chop the file mid-way through the final record's line.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(b) - 10
	if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadFile(path)
	if err != nil {
		t.Fatalf("truncated trace rejected: %v", err)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("truncated trace has %d records, want 2", len(tr.Records))
	}
	// A malformed line that is NOT the truncated tail is still an error.
	bad := append(append([]byte{}, b[:cut]...), []byte("garbage}\n")...)
	bad = append(bad, b[:60]...) // some trailing bytes after the bad line
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("mid-file corruption loaded silently")
	}
}

// TestReadAllocatesForTheTraceNotABuffer: reading a two-line trace
// allocates under 16 KiB (a 1 MiB line buffer once made every Read, and so
// every rotated segment Load opens, cost a megabyte).
func TestReadAllocatesForTheTraceNotABuffer(t *testing.T) {
	line, err := json.Marshal(testRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	trace := `{"flep_trace":true,"version":1,"source":"flepd"}` + "\n" + string(line) + "\n"
	const reads = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if tr, err := Read(strings.NewReader(trace)); err != nil || len(tr.Records) != 1 {
			t.Fatalf("Read = %v, %v; want one record", tr, err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per >= 16<<10 {
		t.Errorf("a two-line trace reads in %d bytes, want under 16 KiB", per)
	}
}

// TestReadTakesALineLongerThanAMebibyte: a record line has no length bound
// below the reader's input; one over 1 MiB reads whole, between two others.
func TestReadTakesALineLongerThanAMebibyte(t *testing.T) {
	long := testRecord(1)
	long.Client = strings.Repeat("c", 3<<19)
	h := testHeader()
	h.Magic, h.TraceVersion = true, Version
	tr := &Trace{Header: h, Records: []Record{testRecord(0), long, testRecord(2)}}
	enc := encodeTrace(t, tr)
	got, err := Read(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got.Records) != 3 || !reflect.DeepEqual(got.Records, tr.Records) {
		t.Fatalf("a %d-byte record line read back as %d records", len(enc), len(got.Records))
	}
}

func TestExactDetection(t *testing.T) {
	exact := &Trace{
		Header: Header{Source: SourceFlepd},
		Records: []Record{
			{Seq: 1, At: 0, Step: 0}, // admitted before the engine ever stepped
			{Seq: 2, At: 500, Step: 3},
		},
	}
	if !exact.Exact() {
		t.Fatal("flepd trace with step indexes not detected as exact")
	}
	missing := &Trace{
		Header:  Header{Source: SourceFlepd},
		Records: []Record{{Seq: 1, At: 500, Step: 0}},
	}
	if missing.Exact() {
		t.Fatal("trace without step indexes claimed exact")
	}
	client := &Trace{
		Header:  Header{Source: SourceFlepload},
		Records: []Record{{Seq: 1, At: 500, Step: 3}},
	}
	if client.Exact() {
		t.Fatal("client-side trace claimed exact")
	}
}

// oomTrace names device 4000000000; a replayer that trusted it would grow
// its per-device tables until memory ran out.
const oomTrace = `{"flep_trace":true,"version":1,"source":"flepd"}
{"seq":1,"at_ns":5,"device":4000000000,"client":"a","bench":"VA","priority":1}
`

// TestReadBoundsDevices: device counts and indices are outside input, so
// Read rejects any a replay could not afford, naming the line.
func TestReadBoundsDevices(t *testing.T) {
	const hdr = `{"flep_trace":true,"version":1,"source":"flepd"`
	for _, c := range []struct{ name, trace, want string }{
		{"huge record device", oomTrace, "trace line 2: device 4000000000"},
		{"record device below -1", hdr + "}\n" + `{"seq":1,"device":-2,"bench":"VA"}` + "\n", "trace line 2: device -2"},
		{"negative header devices", hdr + `,"devices":-1}` + "\n", "trace line 1: devices -1"},
		{"huge header devices", hdr + fmt.Sprintf(`,"devices":%d}`, maxDevices+1) + "\n", fmt.Sprintf("trace line 1: devices %d", maxDevices+1)},
	} {
		if _, err := Read(strings.NewReader(c.trace)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Read error %v, want one naming %q", c.name, err, c.want)
		}
	}
	edge := hdr + fmt.Sprintf(`,"devices":%d}`, maxDevices) + "\n" +
		`{"seq":1,"device":-1,"bench":"VA"}` + "\n" + fmt.Sprintf(`{"seq":2,"device":%d,"bench":"VA"}`, maxDevices-1) + "\n"
	if _, err := Read(strings.NewReader(edge)); err != nil {
		t.Fatalf("a trace at the bounds was rejected: %v", err)
	}
}

// A weight's key is a priority level. One that is not an integer names no
// level, so the header is refused rather than replayed without that weight.
func TestReadRefusesNonIntegerWeightKey(t *testing.T) {
	for _, keys := range []string{`"x":2`, `"1":1,"x":2`, `"1.5":2`} {
		trace := `{"flep_trace":true,"version":1,"source":"flepd","policy":"ffs","weights":{` + keys + `}}` + "\n"
		if _, err := Read(strings.NewReader(trace)); err == nil || !strings.Contains(err.Error(), "trace line 1") {
			t.Errorf("weights {%s}: Read error %v, want one naming trace line 1", keys, err)
		}
	}
}

// encodeTrace writes tr as a trace file: the header line, then a line per
// record.
func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	lines := []any{tr.Header}
	for _, r := range tr.Records {
		lines = append(lines, r)
	}
	var out []byte
	for _, v := range lines {
		line, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// FuzzTraceRead checks that Read never panics, that a trace it accepts is
// inside the device bounds, and that re-encoding an accepted trace reads
// back to a trace with the same encoding. (Not reflect.DeepEqual: an empty
// "weights" or "after" decodes to an empty map or slice and, being
// omitempty, re-encodes as absent, which decodes to nil.)
func FuzzTraceRead(f *testing.F) {
	var whole strings.Builder
	whole.WriteString(`{"flep_trace":true,"version":1,"source":"flepd","policy":"ffs","weights":{"1":2},"devices":2}` + "\n")
	for i := 0; i < 3; i++ {
		line, err := json.Marshal(testRecord(i))
		if err != nil {
			f.Fatal(err)
		}
		whole.Write(append(line, '\n'))
	}
	f.Add([]byte(whole.String()))
	f.Add([]byte(whole.String()[:whole.Len()-10])) // a truncated tail
	f.Add([]byte(`{"flep_trace":true,"version":2,"source":"flepd"}` + "\n"))
	f.Add([]byte(oomTrace))
	f.Add([]byte(`{"flep_trace":true,"version":1,"source":"flepd","policy":"ffs","weights":{"x":2}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if d := tr.Header.Devices; d < 0 || d > maxDevices {
			t.Fatalf("accepted header devices %d", d)
		}
		for _, r := range tr.Records {
			if r.Device < -1 || r.Device >= maxDevices {
				t.Fatalf("accepted record device %d", r.Device)
			}
		}
		enc := encodeTrace(t, tr)
		again, err := Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, enc)
		}
		if again := encodeTrace(t, again); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoded trace reads back different:\n%s\nvs\n%s", again, enc)
		}
	})
}

// FuzzLoad splits a stream into rotated segments, path.1 … path.N and then
// path, cutting after record line i when bit i of cuts is set, and opens
// each segment with the stream's header line, as Recorder.rotate writes
// them. Load must then answer what Read of the unsplit stream answers (an
// error, or its records stably sorted by Seq). When alt is not empty it
// replaces the header line of segment altSeg: among two or more segments,
// one that does not parse, or parses to another header, must be refused.
// Nothing may panic.
func FuzzLoad(f *testing.F) {
	var whole strings.Builder
	whole.WriteString(`{"flep_trace":true,"version":1,"source":"flepd","policy":"ffs","weights":{"1":2},"devices":2}` + "\n")
	for i := 0; i < 6; i++ {
		line, err := json.Marshal(testRecord(i))
		if err != nil {
			f.Fatal(err)
		}
		whole.Write(append(line, '\n'))
	}
	stream := []byte(whole.String())
	f.Add(stream, uint64(0), []byte(nil), uint8(0))
	f.Add(stream, uint64(0b10101), []byte(nil), uint8(0))
	f.Add(stream[:len(stream)-10], uint64(0b111111), []byte(nil), uint8(0)) // a truncated tail
	f.Add(stream, uint64(0b11), []byte(`{"flep_trace":true,"version":1,"source":"flepd","policy":"edf","devices":2}`), uint8(1))
	f.Add(stream, uint64(0b11), []byte(`{"devices":2,"weights":{"1":2},"policy":"ffs","source":"flepd","version":1,"flep_trace":true}`), uint8(2))
	f.Add(stream, uint64(0b1), []byte(`not a header`), uint8(0))
	f.Add([]byte(`{"flep_trace":true,"version":1,"source":"flepd"}`+"\n"+`{"seq":2,"device":0}`+"\n"+`{"seq":1,"device":0}`+"\n"), uint64(1), []byte(nil), uint8(0))
	root := f.TempDir() // one directory per input under it, removed after the input
	f.Fuzz(func(t *testing.T, stream []byte, cuts uint64, alt []byte, altSeg uint8) {
		if len(stream) > 1<<16 {
			return
		}
		header, rest := stream, []byte(nil)
		if i := bytes.IndexByte(stream, '\n'); i >= 0 {
			header, rest = stream[:i+1], stream[i+1:]
		}
		var segments [][]byte
		var seg []byte
		for line := 0; len(rest) > 0; line++ {
			n := bytes.IndexByte(rest, '\n') + 1
			if n == 0 {
				n = len(rest)
			}
			seg, rest = append(seg, rest[:n]...), rest[n:]
			if line < 64 && cuts&(1<<line) != 0 && len(rest) > 0 {
				segments, seg = append(segments, seg), nil
			}
		}
		segments = append(segments, seg)
		altLine, _, _ := bytes.Cut(alt, []byte("\n"))
		altAt := int(altSeg) % len(segments)
		dir, err := os.MkdirTemp(root, "")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "t.trace")
		for i, body := range segments {
			name := path
			if i < len(segments)-1 {
				name = fmt.Sprintf("%s.%d", path, i+1)
			}
			head := header
			if len(alt) > 0 && i == altAt {
				head = append(append([]byte(nil), altLine...), '\n')
			}
			if err := os.WriteFile(name, append(append([]byte(nil), head...), body...), 0o644); err != nil {
				t.Fatal(err)
			}
		}

		got, gerr := Load(path)
		want, werr := Read(bytes.NewReader(stream))
		if len(alt) > 0 && len(segments) == 1 {
			return // the only header: nothing for it to disagree with
		}
		if len(alt) > 0 && !bytes.Equal(bytes.TrimSpace(altLine), bytes.TrimSpace(header)) {
			h, herr := parseHeader(bytes.TrimSpace(header))
			a, aerr := parseHeader(bytes.TrimSpace(altLine))
			if aerr != nil && gerr == nil {
				t.Fatalf("segment %d's header %q does not parse (%v), yet Load accepted it", altAt, altLine, aerr)
			}
			if herr == nil && aerr == nil && !reflect.DeepEqual(h, a) {
				ja, _ := json.Marshal(a)
				jh, _ := json.Marshal(h)
				if !bytes.Equal(ja, jh) && gerr == nil {
					t.Fatalf("segment %d's header %s differs from %s, yet Load accepted it", altAt, ja, jh)
				}
			}
			return
		}
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Load across %d segments: %v; Read of the unsplit stream: %v", len(segments), gerr, werr)
		}
		if werr != nil {
			return
		}
		sort.SliceStable(want.Records, func(i, j int) bool { return want.Records[i].Seq < want.Records[j].Seq })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Load across %d segments differs from Read of the unsplit stream:\n%+v\nvs\n%+v", len(segments), got, want)
		}
	})
}
