package chaos

import (
	"fmt"
	"sort"

	"rebudget/internal/numeric"
)

// EventKind enumerates the scripted chaos events a Schedule can carry.
type EventKind int

// Schedule event kinds.
const (
	// EventPartition cuts a shard's data path (Transport.Partition).
	EventPartition EventKind = iota
	// EventHeal ends a partition.
	EventHeal
	// EventKillShard stops a shard process mid-traffic.
	EventKillShard
	// EventRestartShard brings a killed shard back on its old address.
	EventRestartShard
	// EventLatencySpike turns the injected-latency rate up.
	EventLatencySpike
	// EventLatencyNormal ends a latency spike.
	EventLatencyNormal
	// EventCorruptSnapshot flips a bit in one session's stored snapshot.
	EventCorruptSnapshot
	// EventAddShard grows the serving tier by one shard mid-run —
	// deliberately placed inside an outage window, so elastic rebalance is
	// exercised while the fleet is already degraded.
	EventAddShard
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventPartition:
		return "partition"
	case EventHeal:
		return "heal"
	case EventKillShard:
		return "kill"
	case EventRestartShard:
		return "restart"
	case EventLatencySpike:
		return "latency-spike"
	case EventLatencyNormal:
		return "latency-normal"
	case EventCorruptSnapshot:
		return "corrupt-snapshot"
	case EventAddShard:
		return "add-shard"
	default:
		return "unknown"
	}
}

// Event is one scripted fault: at driver step Step, do Kind to Shard (or
// to Session, for snapshot corruption). Draw seeds any per-event
// randomness (which bit to flip).
type Event struct {
	Step    int
	Kind    EventKind
	Shard   int
	Session string
	Draw    uint64
}

// String renders the event for logs and the chaos scenario's schedule print.
func (e Event) String() string {
	switch e.Kind {
	case EventCorruptSnapshot:
		return fmt.Sprintf("step %4d: %s session=%s draw=%d", e.Step, e.Kind, e.Session, e.Draw)
	case EventLatencySpike, EventLatencyNormal:
		return fmt.Sprintf("step %4d: %s", e.Step, e.Kind)
	default:
		return fmt.Sprintf("step %4d: %s shard=%d", e.Step, e.Kind, e.Shard)
	}
}

// ScheduleConfig sizes a generated chaos schedule.
type ScheduleConfig struct {
	// Seed drives the generator (default 1). Same seed, same schedule.
	Seed uint64
	// Steps is the driver-loop length the events are placed into.
	Steps int
	// Shards is how many shards exist to disturb.
	Shards int
	// Sessions are the ids eligible for snapshot corruption.
	Sessions []string
	// Partitions is how many partition windows to script (default 1).
	Partitions int
	// PartitionLen is each partition's length in steps (default Steps/8).
	PartitionLen int
	// Kills is how many kill/restart windows to script (default 1).
	Kills int
	// KillLen is each kill's downtime in steps (default Steps/8).
	KillLen int
	// LatencySpikes is how many latency-spike windows (default 1).
	LatencySpikes int
	// SpikeLen is each spike's length in steps (default Steps/8).
	SpikeLen int
	// Corruptions is how many snapshot-corruption events (default 1, 0
	// when Sessions is empty).
	Corruptions int
	// ShardAdds is how many mid-run shard additions to script (default 0
	// — opt-in, so pre-elastic schedules stay bit-identical seed for
	// seed: with ShardAdds zero the generator draws nothing extra).
	ShardAdds int
}

func (c ScheduleConfig) withDefaults() ScheduleConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Partitions == 0 {
		c.Partitions = 1
	}
	if c.Kills == 0 {
		c.Kills = 1
	}
	if c.LatencySpikes == 0 {
		c.LatencySpikes = 1
	}
	if c.Corruptions == 0 && len(c.Sessions) > 0 {
		c.Corruptions = 1
	}
	winLen := c.Steps / 8
	if winLen < 2 {
		winLen = 2
	}
	if c.PartitionLen <= 0 {
		c.PartitionLen = winLen
	}
	if c.KillLen <= 0 {
		c.KillLen = winLen
	}
	if c.SpikeLen <= 0 {
		c.SpikeLen = winLen
	}
	return c
}

// NewSchedule generates a deterministic chaos schedule: partition, kill
// and latency windows plus point corruption events, placed so that shard-
// disturbance windows (partitions, kills) never overlap each other — at
// every step at least Shards-1 shards have an intact data path, which is
// what makes "zero lost sessions" a fair invariant to assert. The same
// ScheduleConfig always yields the same schedule; events come back sorted
// by step (stable on kind).
func NewSchedule(cfg ScheduleConfig) []Event {
	cfg = cfg.withDefaults()
	if cfg.Steps < 8 || cfg.Shards < 1 {
		return nil
	}
	rng := numeric.NewRand(cfg.Seed)
	var events []Event
	// disturbed marks steps already inside a shard-disturbance window
	// (with one step of padding so heal/kill never collide on a step).
	disturbed := make([]bool, cfg.Steps)
	place := func(length int) (int, bool) {
		// Seeded first-fit with retries keeps placement deterministic.
		for try := 0; try < 32; try++ {
			maxStart := cfg.Steps - length - 1
			if maxStart < 1 {
				return 0, false
			}
			start := 1 + rng.Intn(maxStart)
			free := true
			for s := start - 1; s <= start+length && s < cfg.Steps; s++ {
				if s >= 0 && disturbed[s] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			for s := start; s < start+length; s++ {
				disturbed[s] = true
			}
			return start, true
		}
		return 0, false
	}

	for i := 0; i < cfg.Partitions; i++ {
		shard := rng.Intn(cfg.Shards)
		if start, ok := place(cfg.PartitionLen); ok {
			events = append(events,
				Event{Step: start, Kind: EventPartition, Shard: shard},
				Event{Step: start + cfg.PartitionLen, Kind: EventHeal, Shard: shard})
		}
	}
	for i := 0; i < cfg.Kills; i++ {
		shard := rng.Intn(cfg.Shards)
		if start, ok := place(cfg.KillLen); ok {
			events = append(events,
				Event{Step: start, Kind: EventKillShard, Shard: shard},
				Event{Step: start + cfg.KillLen, Kind: EventRestartShard, Shard: shard})
		}
	}
	// Latency spikes and corruption are not shard outages; they may land
	// anywhere, including on top of each other.
	for i := 0; i < cfg.LatencySpikes; i++ {
		maxStart := cfg.Steps - cfg.SpikeLen - 1
		if maxStart < 1 {
			break
		}
		start := 1 + rng.Intn(maxStart)
		events = append(events,
			Event{Step: start, Kind: EventLatencySpike},
			Event{Step: start + cfg.SpikeLen, Kind: EventLatencyNormal})
	}
	for i := 0; i < cfg.Corruptions && len(cfg.Sessions) > 0; i++ {
		events = append(events, Event{
			Step:    1 + rng.Intn(cfg.Steps-1),
			Kind:    EventCorruptSnapshot,
			Session: cfg.Sessions[rng.Intn(len(cfg.Sessions))],
			Draw:    rng.Uint64(),
		})
	}
	// Shard adds draw last: every pre-elastic schedule (ShardAdds 0) sees
	// the exact rng stream it always did. Each add lands inside an outage
	// window when one exists — growing the fleet while it is degraded is
	// the hard case — and the Shard field names the new member's index.
	for i := 0; i < cfg.ShardAdds; i++ {
		step := 1 + rng.Intn(cfg.Steps-1)
		if windows := outageWindows(events); len(windows) > 0 {
			w := windows[rng.Intn(len(windows))]
			if w.len > 1 {
				step = w.start + 1 + rng.Intn(w.len-1)
			} else {
				step = w.start
			}
		}
		events = append(events, Event{Step: step, Kind: EventAddShard, Shard: cfg.Shards + i})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Step < events[j].Step })
	return events
}

// outageWindows lists the [start, start+len) spans where a shard is
// partitioned or down, in generation order.
func outageWindows(events []Event) []struct{ start, len int } {
	var out []struct{ start, len int }
	open := make(map[int]int) // shard -> start step, per outage kind pairing
	for _, e := range events {
		switch e.Kind {
		case EventPartition, EventKillShard:
			open[e.Shard] = e.Step
		case EventHeal, EventRestartShard:
			if s, ok := open[e.Shard]; ok {
				out = append(out, struct{ start, len int }{s, e.Step - s})
				delete(open, e.Shard)
			}
		}
	}
	return out
}
