package server

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
)

var updateWireBytes = flag.Bool("update", false, "rewrite testdata/writejson_sha256.txt from this run")

// wireStrings are what a terminal answer's string fields are drawn from:
// names as the daemon writes them, and every class of byte encoding/json
// treats specially (HTML escapes, quote and backslash, control bytes, DEL,
// multi-byte runes, invalid UTF-8, the two JSONP separators).
var wireStrings = []string{
	"bench", "VA", "trivial", "tenant-7", "attained", "a b/c:d_e.f",
	"a<b", "x&y", "c>d", `q"x`, `back\slash`, "é", "日本", "line\nbreak", "tab\there",
	"\x01", "\x7f", "\xff", "ok\xffbad", "\u2028", "pre\u2029post",
}

func wireString(rng *rand.Rand) string {
	s := wireStrings[rng.Intn(len(wireStrings))]
	for rng.Intn(4) == 0 {
		s += wireStrings[rng.Intn(len(wireStrings))]
	}
	return s
}

func wireInt(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return rng.Int63n(10)
	case 1:
		return rng.Int63n(1e6)
	case 2:
		return rng.Int63()
	case 3:
		return -rng.Int63n(1e9)
	case 4:
		return math.MinInt64
	}
	return math.MaxInt64
}

// wireFloat covers both sides of encoding/json's two format switches (1e-6
// and 1e21), its exponent clean-up (e-07 -> e-7, e-10 untouched) and the two
// zeros; it returns finite values only.
func wireFloat(rng *rand.Rand) float64 {
	var f float64
	switch rng.Intn(7) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		f = rng.Float64() * 10
	case 3:
		f = (1 + 9*rng.Float64()) * math.Pow10(-6-rng.Intn(320))
	case 4:
		f = (1 + 9*rng.Float64()) * math.Pow10(21+rng.Intn(287))
	case 5:
		edges := []float64{1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e-10, 1e-100, 1e21, 9.99e20, 1e100, 1, 1.25, 100, 123456789}
		f = edges[rng.Intn(len(edges))]
	default:
		for f = math.NaN(); math.IsNaN(f) || math.IsInf(f, 0); {
			f = math.Float64frombits(rng.Uint64())
		}
		return f
	}
	if rng.Intn(4) == 0 {
		f = -f
	}
	return f
}

// fillWire sets each field of the struct v points to, or leaves it zero
// (one time in three). It goes by reflection so a field added to a wire
// struct is in the corpus the day it is added; a field of a new kind stops
// the test until the corpus is taught to draw one.
func fillWire(rng *rand.Rand, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if rng.Intn(3) == 0 {
			continue
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString(wireString(rng))
		case reflect.Int, reflect.Int64:
			f.SetInt(wireInt(rng))
		case reflect.Float64:
			f.SetFloat(wireFloat(rng))
		default:
			panic("wire corpus: no generator for " + v.Type().Name() + "." + v.Type().Field(i).Name)
		}
	}
}

// wireCorpus is n terminal answers as the handlers pass them to WriteJSON:
// three *LaunchResult to one APIError value.
func wireCorpus(seed int64, n int) []any {
	rng := rand.New(rand.NewSource(seed))
	corpus := make([]any, n)
	for i := range corpus {
		if i%4 == 3 {
			var e APIError
			fillWire(rng, reflect.ValueOf(&e).Elem())
			corpus[i] = e
			continue
		}
		r := new(LaunchResult)
		fillWire(rng, reflect.ValueOf(r).Elem())
		corpus[i] = r
	}
	return corpus
}

const (
	wireGoldenSeed  = 24
	wireGoldenCases = 2048
	wireGoldenFile  = "testdata/writejson_sha256.txt"
)

// TestWriteJSONBytesGolden pins the bytes WriteJSON answers with for a
// seeded corpus of launch results and API errors, one sha256 per case,
// recorded from the encoding/json path. It also checks the corpus is worth
// pinning: every field is set in some case and zero in another.
func TestWriteJSONBytesGolden(t *testing.T) {
	corpus := wireCorpus(wireGoldenSeed, wireGoldenCases)
	set, zero := map[string]bool{}, map[string]bool{}
	var got []string
	for i, v := range corpus {
		rv := reflect.Indirect(reflect.ValueOf(v))
		for j := 0; j < rv.NumField(); j++ {
			name := rv.Type().Name() + "." + rv.Type().Field(j).Name
			set[name] = set[name] || !rv.Field(j).IsZero()
			zero[name] = zero[name] || rv.Field(j).IsZero()
		}
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "application/json" {
			t.Fatalf("case %d (%+v): status %d, Content-Type %q", i, v, rec.Code, ct)
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		got = append(got, hex.EncodeToString(sum[:]))
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(LaunchResult{}), reflect.TypeOf(APIError{})} {
		for j := 0; j < typ.NumField(); j++ {
			if name := typ.Name() + "." + typ.Field(j).Name; !set[name] || !zero[name] {
				t.Errorf("%s: set in some case %v, zero in some case %v", name, set[name], zero[name])
			}
		}
	}

	if *updateWireBytes {
		if err := os.WriteFile(wireGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(wireGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, the corpus %d cases", wireGoldenFile, len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				rec := httptest.NewRecorder()
				WriteJSON(rec, http.StatusOK, corpus[i])
				t.Errorf("case %d (%+v) no longer renders the recorded bytes; now:\n%s", i, corpus[i], rec.Body)
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d cases differ in all", bad)
	}
}

// TestWriteJSONRefusesNonFiniteNTT pins what a result JSON cannot carry
// answers with: encoding/json's own refusal, as a 500.
func TestWriteJSONRefusesNonFiniteNTT(t *testing.T) {
	for ntt, text := range map[float64]string{math.NaN(): "NaN", math.Inf(1): "+Inf", math.Inf(-1): "-Inf"} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, &LaunchResult{Client: "c", NTT: ntt})
		want := "{\n  \"error\": \"encode response: json: unsupported value: " + text + "\"\n}\n"
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
			t.Errorf("NTT %v: status %d, body %q; want 500 %q", ntt, rec.Code, rec.Body, want)
		}
	}
}
