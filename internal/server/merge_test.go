package server

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// TestFleetStatusIsMergeOfShardStatuses pins the fleet to the shared
// merge: after an EDF LC/BE mix and a diamond graph over three shards, the
// fleet's top-level status is exactly MergeStatus of the per-shard
// snapshots it lists under Devices — the same function a cluster gateway
// applies to its nodes.
func TestFleetStatusIsMergeOfShardStatuses(t *testing.T) {
	_, ts := newTestFleet(t, FleetConfig{Config: Config{Policy: "edf"}, Devices: 3})

	var pending []chan asyncRes
	post := func(req LaunchRequest) { pending = append(pending, postAsync(ts.URL, req)) }
	for i := 0; i < 12; i++ {
		req := LaunchRequest{Client: fmt.Sprintf("c%d", i%4), Benchmark: []string{"VA", "MM"}[i%2]}
		if i%3 == 0 {
			req.DeadlineMS = 2000
		}
		post(req)
	}
	post(LaunchRequest{Client: "late", Benchmark: "MM", Class: "large", DeadlineMS: 1})
	base := LaunchRequest{Client: "dag", Graph: "g", Stages: 4, Model: "diamond", Benchmark: "VA"}
	for stage, after := range map[string][]string{"pre": nil, "left": {"pre"}, "right": {"pre"}, "post": {"left", "right"}} {
		req := base
		req.Stage, req.After = stage, after
		post(req)
	}
	for _, ch := range pending {
		if r := <-ch; r.err != nil || r.code != http.StatusOK {
			t.Fatalf("launch: code %d err %v (%+v)", r.code, r.err, r.res)
		}
	}

	st := getStatus(t, ts.URL)
	if len(st.Devices) != 3 {
		t.Fatalf("status lists %d devices, want 3", len(st.Devices))
	}
	want := MergeStatus(st.Devices)
	want.UptimeMS, want.Devices = st.UptimeMS, st.Devices // the fleet's own
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("fleet status != MergeStatus(devices):\n got  %+v\n want %+v", st, want)
	}
	if st.SLO.Attained == 0 || st.SLO.Missed == 0 || len(st.Models) != 1 {
		t.Fatalf("workload did not exercise the SLO and model tiers: slo %+v models %+v", st.SLO, st.Models)
	}
}

// numericLeaves visits every numeric leaf under the struct v: its int and
// float fields, recursing into nested structs and into the elements of
// slices of structs. With grow, an empty slice of structs first gets one
// element, so a zero value can be filled; paths in skip are not entered.
func numericLeaves(v reflect.Value, path string, grow bool, skip map[string]bool, visit func(path string, leaf reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f, p := v.Field(i), path+"."+v.Type().Field(i).Name
		switch {
		case skip[p]:
		case f.Kind() == reflect.Int, f.Kind() == reflect.Int64, f.Kind() == reflect.Float64:
			visit(p, f)
		case f.Kind() == reflect.Struct:
			numericLeaves(f, p, grow, skip, visit)
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Struct:
			if grow && f.Len() == 0 {
				f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			}
			for j := 0; j < f.Len(); j++ {
				numericLeaves(f.Index(j), fmt.Sprintf("%s[%d]", p, j), grow, skip, visit)
			}
		}
	}
}

// TestMergeCoversEveryNumericLeaf is the drift guard: a counter added to
// Status (or its counters, SLOStatus, ModelStatus) or to SessionSnapshot
// and forgotten in merge.go would reach a gateway client as zero, or as
// whatever the first part held. Every numeric leaf of a merge of two
// distinctly-filled parts must therefore be non-zero and differ from the
// first part's value, in both orders, unless the allow-list below says
// why not.
func TestMergeCoversEveryNumericLeaf(t *testing.T) {
	allowed := map[string]string{
		// Identity: the parts of one tier are configured alike, the first
		// speaks for all.
		"Status.Device": "identity field taken from the first part",
		// Extremes: equal to the first part's value whenever the first
		// part holds the extreme.
		"Status.VirtualNowUS":           "maximum over the parts",
		"SessionSnapshot.FirstSeenUnix": "minimum over the parts",
		"SessionSnapshot.LastFinishUS":  "maximum over the parts",
	}
	// Not merged at all: the caller's own clock and per-part breakdown.
	skip := map[string]bool{"Status.UptimeMS": true, "Status.Devices": true}

	// fill gives every numeric leaf a distinct non-zero value. Strings stay
	// empty, so two filled values name the same model row and session.
	var next int64
	fill := func(v any, root string) {
		numericLeaves(reflect.ValueOf(v).Elem(), root, true, skip, func(_ string, leaf reflect.Value) {
			next++
			if leaf.Kind() == reflect.Float64 {
				leaf.SetFloat(float64(next))
			} else {
				leaf.SetInt(next)
			}
		})
	}
	read := func(v any, root string) map[string]float64 {
		out := map[string]float64{}
		numericLeaves(reflect.ValueOf(v).Elem(), root, false, skip, func(p string, leaf reflect.Value) {
			if leaf.Kind() == reflect.Float64 {
				out[p] = leaf.Float()
			} else {
				out[p] = float64(leaf.Int())
			}
		})
		return out
	}
	check := func(root string, first, merged any, atLeast int) {
		was, got := read(first, root), read(merged, root)
		if len(was) < atLeast {
			t.Fatalf("reflection walk found only %d numeric leaves under %s", len(was), root)
		}
		for p, v := range was {
			switch g, ok := got[p]; {
			case !ok || g == 0:
				t.Errorf("%s is missing or zero after a merge: merge.go does not carry it", p)
			case g == v && allowed[p] == "":
				t.Errorf("%s still holds the first part's value after a merge: merge.go does not fold it (or allow-list it with the reason)", p)
			}
		}
	}

	var a, b Status
	fill(&a, "Status")
	fill(&b, "Status")
	ab, ba := MergeStatus([]Status{a, b}), MergeStatus([]Status{b, a})
	check("Status", &a, &ab, 36)
	check("Status", &b, &ba, 36)

	var sa, sb SessionSnapshot
	fill(&sa, "SessionSnapshot")
	fill(&sb, "SessionSnapshot")
	sab, sba := sa, sb
	sab.Merge(sb)
	sba.Merge(sa)
	check("SessionSnapshot", &sa, &sab, 20)
	check("SessionSnapshot", &sb, &sba, 20)
}
