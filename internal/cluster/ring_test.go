package cluster

import (
	"fmt"
	"testing"

	"flep/internal/server"
)

// These pin the ring the gateway walks (server.Ring) on node names; a walk
// is part indices, so walk maps them back.
func walk(r *server.Ring, nodes []string, key string) []string {
	var out []string
	for _, i := range r.Walk(key) {
		out = append(out, nodes[i])
	}
	return out
}

func TestRingSequenceCoversAllNodesOnce(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r := server.NewRing(nodes)
	for i := 0; i < 100; i++ {
		seq := walk(r, nodes, fmt.Sprintf("client-%d", i))
		if len(seq) != len(nodes) {
			t.Fatalf("sequence length %d, want %d", len(seq), len(nodes))
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("node %s appears twice in %v", n, seq)
			}
			seen[n] = true
		}
	}
}

func TestRingSequenceIsDeterministic(t *testing.T) {
	n1, n2 := []string{"a", "b", "c"}, []string{"c", "a", "b"} // construction order must not matter
	r1, r2 := server.NewRing(n1), server.NewRing(n2)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		s1, s2 := walk(r1, n1, key), walk(r2, n2, key)
		for j := range s1 {
			if s1[j] != s2[j] {
				t.Fatalf("key %s: ring order depends on construction order: %v vs %v", key, s1, s2)
			}
		}
		if r1.Home(key) != r1.Walk(key)[0] {
			t.Fatalf("key %s: Home is not the walk's first part", key)
		}
	}
}

// The consistent-hash property the drain path relies on: excluding one
// node remaps exactly the sessions homed on it — every other session's
// first eligible choice is unchanged.
func TestRingExclusionRemapsOnlyHomedSessions(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r := server.NewRing(nodes)
	const excluded = "b"
	firstEligible := func(seq []string, skip string) string {
		for _, n := range seq {
			if n != skip {
				return n
			}
		}
		return ""
	}
	homed, moved := 0, 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("session-%d", i)
		seq := walk(r, nodes, key)
		before := seq[0]
		after := firstEligible(seq, excluded)
		if before == excluded {
			homed++
			if after == excluded || after == "" {
				t.Fatalf("key %s not remapped off excluded node", key)
			}
		} else {
			if after != before {
				t.Fatalf("key %s moved from %s to %s though its home was not excluded", key, before, after)
			}
			moved++
		}
	}
	if homed == 0 {
		t.Fatal("no sessions homed on the excluded node; test vacuous")
	}
}

// Vnode fan-out keeps the keyspace split roughly fair: no node of four
// should own more than half of 1000 keys.
func TestRingBalance(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r := server.NewRing(nodes)
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		counts[nodes[r.Home(fmt.Sprintf("key-%d", i))]]++
	}
	for n, c := range counts {
		if c > 500 {
			t.Fatalf("node %s owns %d/1000 keys — ring badly unbalanced (%v)", n, c, counts)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d nodes own keys: %v", len(counts), counts)
	}
}
