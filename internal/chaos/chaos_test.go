package chaos

import (
	"reflect"
	"testing"
	"time"
)

// Same seed, same per-target call sequence ⇒ same fault decisions — the
// contract every chaos assertion rests on.
func TestInjectorDeterministicPerSeed(t *testing.T) {
	cfg := Config{
		Seed: 42, LatencyRate: 0.3, DropRate: 0.2, Blip5xxRate: 0.1,
		ResetRate: 0.15, SaveEIORate: 0.2, TornWriteRate: 0.2, LoadCorruptRate: 0.3,
	}
	run := func() ([]transportPlan, []diskPlan, []bool) {
		in := New(cfg)
		var tps []transportPlan
		var dps []diskPlan
		var loads []bool
		for i := 0; i < 200; i++ {
			tps = append(tps, in.planRequest("shard-a:9001"))
			tps = append(tps, in.planRequest("shard-b:9002"))
			dps = append(dps, in.planSave("sess-1"))
			c, _ := in.planLoad("sess-2")
			loads = append(loads, c)
		}
		return tps, dps, loads
	}
	t1, d1, l1 := run()
	t2, d2, l2 := run()
	if !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(l1, l2) {
		t.Fatal("same seed produced different fault sequences")
	}
}

// Per-target streams are independent of interleaving: target A's k-th draw
// does not change because target B was queried in between.
func TestInjectorStreamsIndependent(t *testing.T) {
	cfg := Config{Seed: 7, LatencyRate: 0.5, DropRate: 0.5}
	solo := New(cfg)
	var want []transportPlan
	for i := 0; i < 64; i++ {
		want = append(want, solo.planRequest("target-a"))
	}
	mixed := New(cfg)
	var got []transportPlan
	for i := 0; i < 64; i++ {
		mixed.planRequest("target-b") // interleaved noise
		got = append(got, mixed.planRequest("target-a"))
		mixed.planSave("some-session")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("target-a's stream was perturbed by other targets")
	}
}

// Different seeds must actually differ (a frozen stream would pass the
// determinism tests vacuously).
func TestInjectorSeedsDiffer(t *testing.T) {
	draw := func(seed uint64) []transportPlan {
		in := New(Config{Seed: seed, LatencyRate: 0.5, DropRate: 0.5, Blip5xxRate: 0.5})
		var out []transportPlan
		for i := 0; i < 64; i++ {
			out = append(out, in.planRequest("t"))
		}
		return out
	}
	if reflect.DeepEqual(draw(1), draw(2)) {
		t.Fatal("seeds 1 and 2 drew identical fault sequences")
	}
}

// A disabled config builds no injector, and the nil injector is inert.
func TestDisabledConfigIsNil(t *testing.T) {
	if in := New(Config{Seed: 9}); in != nil {
		t.Fatal("zero-rate config should build a nil injector")
	}
	var in *Injector
	if p := in.planRequest("x"); p != (transportPlan{}) {
		t.Fatal("nil injector planned a fault")
	}
	if p := in.planSave("x"); p != (diskPlan{}) {
		t.Fatal("nil injector planned a disk fault")
	}
	if c, _ := in.planLoad("x"); c {
		t.Fatal("nil injector planned a load corruption")
	}
}

// Fault rates are honoured to first order, and injected latencies stay in
// their configured range.
func TestInjectorRatesAndStats(t *testing.T) {
	in := New(Config{Seed: 3, LatencyRate: 0.25, LatencyMin: time.Millisecond, LatencyMax: 2 * time.Millisecond})
	const n = 4000
	hits := 0
	for i := 0; i < n; i++ {
		if p := in.planRequest("host"); p.latency > 0 {
			hits++
			if p.latency < time.Millisecond || p.latency > 2*time.Millisecond {
				t.Fatalf("latency %v outside [1ms,2ms]", p.latency)
			}
		}
	}
	frac := float64(hits) / n
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("latency rate %.3f far from configured 0.25", frac)
	}
}

// Schedules are pure functions of their config, non-overlapping in their
// shard-disturbance windows, and paired open/close.
func TestScheduleDeterministicAndWellFormed(t *testing.T) {
	cfg := ScheduleConfig{
		Seed: 11, Steps: 200, Shards: 2,
		Sessions:   []string{"a", "b", "c"},
		Partitions: 2, Kills: 1, LatencySpikes: 1, Corruptions: 2,
	}
	s1 := NewSchedule(cfg)
	s2 := NewSchedule(cfg)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same config produced different schedules")
	}
	if len(s1) == 0 {
		t.Fatal("empty schedule")
	}
	if reflect.DeepEqual(s1, NewSchedule(ScheduleConfig{
		Seed: 12, Steps: 200, Shards: 2, Sessions: cfg.Sessions,
		Partitions: 2, Kills: 1, LatencySpikes: 1, Corruptions: 2,
	})) {
		t.Fatal("different seeds produced identical schedules")
	}

	// Every disturbance opens before it closes, and no two shard outages
	// overlap: at most one shard is dark at any step.
	type window struct{ from, to int }
	var outages []window
	open := map[EventKind]map[int]int{ // kind → shard → open step
		EventPartition: {}, EventKillShard: {},
	}
	closer := map[EventKind]EventKind{EventHeal: EventPartition, EventRestartShard: EventKillShard}
	for _, e := range s1 {
		if e.Step < 1 || e.Step > cfg.Steps {
			t.Fatalf("event %v outside schedule", e)
		}
		switch e.Kind {
		case EventPartition, EventKillShard:
			open[e.Kind][e.Shard] = e.Step
		case EventHeal, EventRestartShard:
			k := closer[e.Kind]
			from, ok := open[k][e.Shard]
			if !ok {
				t.Fatalf("%v closes a window that never opened", e)
			}
			outages = append(outages, window{from, e.Step})
			delete(open[k], e.Shard)
		}
	}
	for k, m := range open {
		if len(m) != 0 {
			t.Fatalf("unclosed %v windows: %v", k, m)
		}
	}
	for i, a := range outages {
		for _, b := range outages[i+1:] {
			if a.from < b.to && b.from < a.to {
				t.Fatalf("outage windows overlap: %v and %v", a, b)
			}
		}
	}
}

// Shard adds are opt-in and draw after everything else: a schedule with
// ShardAdds set is the exact pre-elastic schedule plus add-shard events,
// and each add lands inside an outage window (growing the fleet while it
// is degraded is the case worth rehearsing).
func TestScheduleShardAddsExtendWithoutPerturbing(t *testing.T) {
	base := ScheduleConfig{
		Seed: 11, Steps: 200, Shards: 2,
		Sessions:   []string{"a", "b", "c"},
		Partitions: 2, Kills: 1, LatencySpikes: 1, Corruptions: 2,
	}
	withAdds := base
	withAdds.ShardAdds = 2
	s0 := NewSchedule(base)
	s1 := NewSchedule(withAdds)

	strip := func(events []Event) []Event {
		var out []Event
		for _, e := range events {
			if e.Kind != EventAddShard {
				out = append(out, e)
			}
		}
		return out
	}
	if !reflect.DeepEqual(s0, strip(s1)) {
		t.Fatal("enabling ShardAdds perturbed the pre-elastic schedule")
	}

	adds := 0
	inOutage := func(step int) bool {
		open := map[int]int{}
		for _, e := range s1 {
			switch e.Kind {
			case EventPartition, EventKillShard:
				open[e.Shard] = e.Step
			case EventHeal, EventRestartShard:
				if s, ok := open[e.Shard]; ok && s <= step && step < e.Step {
					return true
				}
				delete(open, e.Shard)
			}
		}
		return false
	}
	for _, e := range s1 {
		if e.Kind != EventAddShard {
			continue
		}
		adds++
		if e.Shard < base.Shards {
			t.Fatalf("add-shard names an existing shard index %d", e.Shard)
		}
		if !inOutage(e.Step) {
			t.Fatalf("add-shard at step %d is outside every outage window", e.Step)
		}
	}
	if adds != 2 {
		t.Fatalf("schedule carries %d add-shard events, want 2", adds)
	}
}
