package cluster

import (
	"fmt"
	"testing"
)

func TestSupersedes(t *testing.T) {
	cases := []struct {
		name          string
		remote, local ShardObservation
		want          bool
	}{
		{"higher seq wins", ShardObservation{Seq: 3, Healthy: true}, ShardObservation{Seq: 2, Healthy: false}, true},
		{"lower seq loses", ShardObservation{Seq: 1, Healthy: false}, ShardObservation{Seq: 2, Healthy: true}, false},
		{"tie: unhealthy beats healthy", ShardObservation{Seq: 2, Healthy: false}, ShardObservation{Seq: 2, Healthy: true}, true},
		{"tie: healthy does not beat unhealthy", ShardObservation{Seq: 2, Healthy: true}, ShardObservation{Seq: 2, Healthy: false}, false},
		{"tie: equal states are not adopted", ShardObservation{Seq: 2, Healthy: true}, ShardObservation{Seq: 2, Healthy: true}, false},
	}
	for _, c := range cases {
		if got := Supersedes(c.remote, c.local); got != c.want {
			t.Errorf("%s: Supersedes=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestMergeObservationsIgnoresUnknownShards(t *testing.T) {
	local := map[string]ShardObservation{
		"s1": {Shard: "s1", Healthy: true, Seq: 1},
	}
	adopted := MergeObservations(local, []ShardObservation{
		{Shard: "s1", Healthy: false, Seq: 2},
		{Shard: "s9", Healthy: false, Seq: 7}, // not in local membership
	})
	if len(adopted) != 1 || adopted[0].Shard != "s1" {
		t.Fatalf("adopted = %+v", adopted)
	}
	if _, leaked := local["s9"]; leaked {
		t.Fatal("merge adopted an observation about an unknown shard")
	}
	if local["s1"].Healthy || local["s1"].Seq != 2 {
		t.Fatalf("merge did not adopt the newer observation: %+v", local["s1"])
	}
}

// gossipNode is a minimal replica for convergence simulation: a local view
// plus the digest push that a real router's gossip loop performs.
type gossipNode struct {
	view map[string]ShardObservation
}

func (n *gossipNode) digest() []ShardObservation {
	out := make([]ShardObservation, 0, len(n.view))
	for _, obs := range n.view {
		out = append(out, obs)
	}
	return out
}

// Convergence bound: on a peer graph of diameter D where every node pushes
// its digest to its peers once per round, a first-hand observation reaches
// every node within D rounds. Pinned for the two shapes that matter: full
// mesh (D=1, the deployment default) and a chain (worst connected case).
func TestGossipConvergenceBound(t *testing.T) {
	shards := []string{"s1", "s2", "s3", "s4"}
	newNodes := func(n int) []*gossipNode {
		nodes := make([]*gossipNode, n)
		for i := range nodes {
			nodes[i] = &gossipNode{view: make(map[string]ShardObservation)}
			for _, s := range shards {
				nodes[i].view[s] = ShardObservation{Shard: s, Healthy: true, Seq: 0}
			}
		}
		return nodes
	}
	runRound := func(nodes []*gossipNode, peers func(i int) []int) {
		// Push-style: every node sends its current digest to its peers.
		// Digests are snapshotted first so a round is one exchange, not a
		// cascade (the bound must hold without intra-round relaying).
		digests := make([][]ShardObservation, len(nodes))
		for i, n := range nodes {
			digests[i] = n.digest()
		}
		for i := range nodes {
			for _, p := range peers(i) {
				MergeObservations(nodes[p].view, digests[i])
			}
		}
	}
	converged := func(nodes []*gossipNode, shard string) bool {
		for _, n := range nodes {
			if n.view[shard].Healthy {
				return false
			}
		}
		return true
	}

	t.Run("full mesh converges in 1 round", func(t *testing.T) {
		nodes := newNodes(5)
		// Node 0 observes s3 die first-hand: seq bump + flip.
		nodes[0].view["s3"] = ShardObservation{Shard: "s3", Healthy: false, Seq: 1}
		all := func(i int) []int {
			var out []int
			for j := range nodes {
				if j != i {
					out = append(out, j)
				}
			}
			return out
		}
		runRound(nodes, all)
		if !converged(nodes, "s3") {
			t.Fatal("full mesh did not converge on the dead shard within 1 round")
		}
	})

	t.Run("chain of N converges in N-1 rounds", func(t *testing.T) {
		const n = 6
		nodes := newNodes(n)
		nodes[0].view["s2"] = ShardObservation{Shard: "s2", Healthy: false, Seq: 1}
		chain := func(i int) []int {
			var out []int
			if i > 0 {
				out = append(out, i-1)
			}
			if i < n-1 {
				out = append(out, i+1)
			}
			return out
		}
		for round := 1; round <= n-1; round++ {
			runRound(nodes, chain)
			if converged(nodes, "s2") && round < n-1 {
				break
			}
		}
		if !converged(nodes, "s2") {
			t.Fatalf("chain of %d did not converge within %d rounds", n, n-1)
		}
	})

	t.Run("fresh local flip overrides stale gossip", func(t *testing.T) {
		nodes := newNodes(2)
		// Node 0 saw s1 die (seq 1) and gossiped it; node 1 adopted it.
		nodes[0].view["s1"] = ShardObservation{Shard: "s1", Healthy: false, Seq: 1}
		runRound(nodes, func(i int) []int { return []int{1 - i} })
		if nodes[1].view["s1"].Healthy {
			t.Fatal("setup: node 1 should have adopted the death")
		}
		// Node 1 then probes s1 healthy first-hand: seq = max seen + 1.
		nodes[1].view["s1"] = ShardObservation{Shard: "s1", Healthy: true, Seq: 2}
		runRound(nodes, func(i int) []int { return []int{1 - i} })
		for i, n := range nodes {
			if !n.view["s1"].Healthy {
				t.Fatalf("node %d still believes stale gossip over a fresh first-hand probe", i)
			}
		}
	})
}

// A dense cluster of observations across many shards still merges shard by
// shard — no cross-shard interference.
func TestMergeObservationsManyShards(t *testing.T) {
	local := make(map[string]ShardObservation)
	var remote []ShardObservation
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("s%d", i)
		local[name] = ShardObservation{Shard: name, Healthy: true, Seq: uint64(i)}
		// Every third shard has a newer remote observation.
		if i%3 == 0 {
			remote = append(remote, ShardObservation{Shard: name, Healthy: false, Seq: uint64(i) + 1})
		} else {
			remote = append(remote, ShardObservation{Shard: name, Healthy: false, Seq: uint64(i) - 1})
		}
	}
	adopted := MergeObservations(local, remote)
	want := 0
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("s%d", i)
		if i%3 == 0 {
			want++
			if local[name].Healthy {
				t.Fatalf("shard %s: newer remote not adopted", name)
			}
		} else if !local[name].Healthy {
			t.Fatalf("shard %s: older remote adopted", name)
		}
	}
	if len(adopted) != want {
		t.Fatalf("adopted %d observations, want %d", len(adopted), want)
	}
}

// MergeObservations folds a received digest's shard observations into a
// local view (keyed by shard) and returns the observations that were
// adopted, in digest order — the gossip model TestGossipConvergenceBound
// runs. Shards absent from the local view are ignored: membership is
// epoch-gated, so an observation about a shard this replica doesn't know
// belongs to a membership change it hasn't adopted yet.
func MergeObservations(local map[string]ShardObservation, remote []ShardObservation) []ShardObservation {
	var adopted []ShardObservation
	for _, obs := range remote {
		cur, known := local[obs.Shard]
		if !known {
			continue
		}
		if Supersedes(obs, cur) {
			local[obs.Shard] = obs
			adopted = append(adopted, obs)
		}
	}
	return adopted
}
