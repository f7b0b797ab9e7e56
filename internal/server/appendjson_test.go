package server

import (
	"math"
	"testing"
)

// encodeIndented is the reference an appendJSON is held to: a fresh one of
// the encoders WriteJSON uses for every other value.
func encodeIndented(v any) ([]byte, error) {
	e := jsonEncPool.New().(*jsonEnc)
	err := e.enc.Encode(v)
	return e.buf.Bytes(), err
}

// requireSameJSON fails unless v appends the reference's bytes after what
// the buffer already holds, or declines exactly when the reference refuses.
func requireSameJSON(t *testing.T, v jsonAppender) {
	t.Helper()
	want, err := encodeIndented(v)
	got := v.appendJSON([]byte("kept"))
	if err != nil {
		if got != nil {
			t.Fatalf("%+v: encoding/json refuses (%v), appendJSON wrote %q", v, err, got)
		}
		return
	}
	if string(got) != "kept"+string(want) {
		t.Fatalf("%+v: appendJSON wrote\n%s\nencoding/json\n%s", v, got, want)
	}
}

// TestAppendJSONMatchesEncodingJSON is TestWriteJSONBytesGolden's live
// twin: the golden's corpus and a larger one from another seed, each case
// compared byte for byte against encoding/json. The corpus is built by
// reflection, so a field added to LaunchResult or APIError without
// teaching its appendJSON fails here.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, v := range append(wireCorpus(wireGoldenSeed, wireGoldenCases), wireCorpus(1, 20000)...) {
		requireSameJSON(t, v.(jsonAppender))
	}
}

// FuzzLaunchResultJSON searches for a result or an error text whose
// appended bytes differ from encoding/json's, or that only one of the two
// refuses (a non-finite NTT).
func FuzzLaunchResultJSON(f *testing.F) {
	for i, s := range wireStrings {
		f.Add(s, "VA", wireStrings[(i+1)%len(wireStrings)], "missed", s+"!", math.Float64bits(1.25), int64(i), int64(-i), i)
	}
	for _, ntt := range []float64{0, math.Copysign(0, -1), 1e-6, 9.999999e-7, 1.5e-9, 1e-10, 1e21, 9.99e20, math.NaN(), math.Inf(-1)} {
		f.Add("c", "k", "small", "", "", math.Float64bits(ntt), int64(math.MinInt64), int64(math.MaxInt64), 0)
	}
	f.Fuzz(func(t *testing.T, client, kernel, class, slo, text string, nttBits uint64, a, b int64, c int) {
		r := &LaunchResult{
			ID: c, Client: client, Kernel: kernel, Class: class, Priority: c >> 8, Device: c & 0xff,
			SubmittedVirtualNS: a, FinishedVirtualNS: b, TurnaroundNS: b - a, WaitingNS: a >> 7, ExecutionNS: a ^ b,
			NTT: math.Float64frombits(nttBits), Preemptions: c % 7, PreemptEstimateNS: b >> 9, OverheadNS: a & b,
			QueueWaitRealNS: a % 1000, DeadlineVirtualNS: b % 3, SLO: slo, SLOMarginNS: a % 2,
		}
		// The low bits of c say which of the two error texts the result has.
		if c&1 != 0 {
			r.Canceled = text
		}
		if c&2 != 0 {
			r.Err = text
		}
		requireSameJSON(t, r)
		requireSameJSON(t, APIError{text})
	})
}
