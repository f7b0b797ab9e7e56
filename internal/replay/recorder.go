package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"flep/internal/obs"
)

// bufferBytes sizes a Recorder's write buffer. Records are buffered, not
// fsync'd: Flush pushes them to the OS, Close finalizes.
const bufferBytes = 64 << 10

// RecorderOptions tune a Recorder.
type RecorderOptions struct {
	// RotateBytes rotates the trace file once a segment exceeds this many
	// bytes: the current file is renamed to `path.N` and a fresh segment
	// (with its own header) opens at path. 0 disables rotation.
	RotateBytes int64
	// WallClock supplies real time for the header's CreatedUnixMS stamp
	// and the per-record Wall offsets. The replay package itself never
	// reads the wall clock — that would break the byte-identical trace
	// contract — so the daemon boundary injects time.Now here. When nil
	// the trace is fully deterministic: CreatedUnixMS is whatever the
	// caller put in the header (normally 0) and every Wall offset is 0.
	WallClock func() time.Time
}

// Recorder appends admitted launches to a trace file. It is safe for
// concurrent use — a fleet's shard loops all record into one trace — and
// it never blocks the admission path on disk latency beyond the buffered
// write itself. Write errors drop the record and count the drop rather
// than failing the daemon: recording is an observer, not a participant.
type Recorder struct {
	path string
	opts RecorderOptions
	hdr  Header

	epoch time.Time

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	segBytes int64
	segments int
	seq      int64
	closed   bool

	// encBuf/enc/scratch are the reused encode path, guarded by mu: each
	// Record serializes into encBuf via the long-lived encoder instead of
	// allocating a json.Marshal result per launch, and scratch keeps the
	// record addressable without escaping the parameter to the heap.
	// json.Encoder.Encode emits exactly json.Marshal's bytes plus '\n'
	// (same HTML escaping), so the trace stays byte-identical.
	encBuf  bytes.Buffer
	enc     *json.Encoder
	scratch Record

	// Instruments are nil-safe (see obs); Bind installs real ones.
	records   *obs.Counter
	dropped   *obs.Counter
	flushes   *obs.Counter
	rotations *obs.Counter
}

// NewRecorder opens (truncating) a trace file at path and writes the
// header. The header's Magic and TraceVersion are filled in;
// CreatedUnixMS is stamped only when opts.WallClock is set.
func NewRecorder(path string, hdr Header, opts RecorderOptions) (*Recorder, error) {
	hdr.Magic = true
	hdr.TraceVersion = Version
	r := &Recorder{path: path, opts: opts, hdr: hdr}
	r.enc = json.NewEncoder(&r.encBuf)
	if opts.WallClock != nil {
		now := opts.WallClock()
		r.hdr.CreatedUnixMS = now.UnixMilli()
		r.epoch = now
	}
	if err := r.openSegment(); err != nil {
		return nil, err
	}
	return r, nil
}

// Bind registers the recorder's drop/flush instrumentation on a metrics
// registry. Call at most once per registry.
func (r *Recorder) Bind(reg *obs.Registry) {
	// Register before taking r.mu: a concurrent scrape holds the
	// registry mutex while calling the gauge closure below, which takes
	// r.mu — registering under r.mu would invert that order.
	records := reg.Counter("flep_recorder_records_total", "Launch records appended to the trace")
	dropped := reg.Counter("flep_recorder_dropped_total", "Launch records lost to write or rotation errors")
	flushes := reg.Counter("flep_recorder_flushes_total", "Explicit trace buffer flushes")
	rotations := reg.Counter("flep_recorder_rotations_total", "Trace file rotations")
	reg.GaugeFunc("flep_recorder_segment_bytes", "Bytes written to the current trace segment",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.segBytes)
		})
	r.mu.Lock()
	defer r.mu.Unlock()
	r.records = records
	r.dropped = dropped
	r.flushes = flushes
	r.rotations = rotations
}

// openSegment opens a fresh file at r.path and writes the header line.
// Caller holds r.mu (or is the constructor).
func (r *Recorder) openSegment() error {
	f, err := os.Create(r.path)
	if err != nil {
		return fmt.Errorf("replay: open trace %s: %w", r.path, err)
	}
	w := bufio.NewWriterSize(f, bufferBytes)
	line, err := json.Marshal(r.hdr)
	if err != nil {
		f.Close()
		return fmt.Errorf("replay: marshal trace header: %w", err)
	}
	n, err := w.Write(append(line, '\n'))
	if err != nil {
		f.Close()
		return fmt.Errorf("replay: write trace header: %w", err)
	}
	r.f, r.w, r.segBytes = f, w, int64(n)
	return nil
}

// rotate closes the current segment and shifts it to `path.N`. Caller
// holds r.mu.
func (r *Recorder) rotate() error {
	if err := r.w.Flush(); err != nil {
		return err
	}
	if err := r.f.Close(); err != nil {
		return err
	}
	r.segments++
	if err := os.Rename(r.path, fmt.Sprintf("%s.%d", r.path, r.segments)); err != nil {
		return err
	}
	r.rotations.Inc()
	return r.openSegment()
}

// Record appends one launch. It assigns the record's Seq and Wall fields
// and reports whether the record was persisted (false = dropped, with
// the drop counted).
func (r *Recorder) Record(rec Record) bool {
	// Sample the clock before locking: the injected WallClock is outside
	// code, and r.epoch is immutable after construction.
	var wall int64
	if r.opts.WallClock != nil {
		wall = r.opts.WallClock().Sub(r.epoch).Nanoseconds()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		r.dropped.Inc()
		return false
	}
	r.seq++
	r.scratch = rec
	r.scratch.Seq = r.seq
	r.scratch.Wall = wall
	r.encBuf.Reset()
	if err := r.enc.Encode(&r.scratch); err != nil {
		r.dropped.Inc()
		return false
	}
	line := r.encBuf.Bytes() // includes the trailing '\n'
	if r.opts.RotateBytes > 0 && r.segBytes+int64(len(line)) > r.opts.RotateBytes && r.segBytes > 0 {
		if err := r.rotate(); err != nil {
			// The old segment (and everything buffered into it) may be
			// gone mid-rotation; the daemon must keep serving regardless.
			r.dropped.Inc()
			return false
		}
	}
	n, err := r.w.Write(line)
	r.segBytes += int64(n)
	if err != nil {
		r.dropped.Inc()
		return false
	}
	r.records.Inc()
	return true
}

// Seq returns how many records have been assigned so far.
func (r *Recorder) Seq() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Path returns the trace file path.
func (r *Recorder) Path() string { return r.path }

// Flush pushes buffered records to the OS. The daemon calls it when a
// graceful drain completes, so a SIGTERM'd flepd leaves a readable trace
// even before Close.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.flushes.Inc()
	return r.w.Flush()
}

// Close flushes and closes the trace file. Records arriving after Close
// are dropped (and counted).
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	ferr := r.w.Flush()
	cerr := r.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}
