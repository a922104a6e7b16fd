package cluster

// Gossip types: the anti-entropy digest router replicas exchange so N
// routers converge on one view of membership and shard health. The
// protocol is deliberately tiny — a periodic full-state push of
// (epoch, members, per-shard observations) to each peer — because the
// state is tiny: single-digit shards, versioned by per-shard sequence
// numbers rather than clocks.
//
// Convergence: a push to every peer each interval means any observation
// made on one replica reaches all N-1 peers within one gossip interval
// and is then re-pushed by them, so a full mesh converges in 1 round and
// any connected peer graph of diameter D converges in D rounds. The
// cluster tests pin that bound.

// ShardObservation is one replica's current belief about one shard,
// versioned by Seq. Seq is bumped only by a replica that observes a state
// flip first-hand (a probe or data-path failure/recovery); replicas that
// merely adopt a peer's observation keep its Seq. Higher Seq wins a merge,
// so a fresh first-hand flip beats any amount of stale gossip, and a
// replica's own next first-hand flip (Seq = max seen + 1) reclaims
// authority over what gossip told it.
type ShardObservation struct {
	Shard   string `json:"shard"`
	Healthy bool   `json:"healthy"`
	Seq     uint64 `json:"seq"`
}

// Digest is the full gossip payload: the sender's membership epoch, its
// member list at that epoch, and its per-shard health observations.
// Membership travels inside the digest (not as a "go ask the admin API"
// pointer) so a partitioned-then-healed replica catches up from any one
// peer in a single exchange.
type Digest struct {
	Epoch   uint64             `json:"epoch"`
	Members []string           `json:"members,omitempty"`
	Shards  []ShardObservation `json:"shards,omitempty"`
}

// Supersedes reports whether remote should replace local when both
// describe the same shard. Higher Seq wins; on a Seq tie an unhealthy
// observation wins — the pessimistic tie-break, because acting on a false
// "down" costs one redundant failover probe while acting on a false "up"
// sends live traffic at a dead shard.
func Supersedes(remote, local ShardObservation) bool {
	if remote.Seq != local.Seq {
		return remote.Seq > local.Seq
	}
	return !remote.Healthy && local.Healthy
}
