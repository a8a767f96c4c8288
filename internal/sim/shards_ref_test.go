package sim

import (
	"testing"
)

// This file checks the conservative windowed multi-list runner against the
// single-list engine, mirroring eventlist_ref_test.go's reference-model
// approach one level up: the same randomized actor workload runs once on
// one EventList and once partitioned across shards under MultiRunner, and
// every actor must observe the identical event sequence. The workload
// exercises exactly the properties the real fabric relies on: per-actor
// RNG streams, canonical (uid, seq) keys on cross-actor messages, and a
// minimum cross-shard latency equal to the runner's lookahead.

const (
	refLookahead = 500 * Nanosecond
	refActors    = 8 // actors per shard
)

// refActor is one stateful component: it logs everything it sees and
// reacts by scheduling local work and sending messages to random actors.
type refActor struct {
	w      *refWorld
	id     int
	shard  int
	el     *EventList
	rng    *Rand
	seq    uint64 // emission counter for canonical message keys
	budget int    // reactions left, bounds the cascade
	log    []refLogEntry
}

type refLogEntry struct {
	at  Time
	arg uint64
}

// refWorld wires actors together in one of the two modes. send delivers a
// keyed message to actor dst at time at (directly onto the destination
// list in single mode, via the src->dst shard mailbox in sharded mode).
type refWorld struct {
	actors []*refActor
	send   func(src, dst *refActor, at Time, ord uint64, arg uint64)
	// lat, when non-nil, is the per-shard-pair minimum cross latency the
	// actors must respect (the lookahead-matrix twin); nil means the
	// uniform refLookahead.
	lat [][]Time
}

// minLat is the smallest latency a message from src to dst may carry.
func (w *refWorld) minLat(src, dst *refActor) Time {
	if w.lat == nil || src.shard == dst.shard {
		return refLookahead
	}
	return w.lat[src.shard][dst.shard]
}

// OnEvent logs the stimulus and reacts deterministically from the actor's
// own RNG: a few local events at arbitrary offsets (intra-shard causality
// has no lookahead bound) and cross-actor messages at >= lookahead.
func (a *refActor) OnEvent(arg uint64) {
	a.log = append(a.log, refLogEntry{at: a.el.Now(), arg: arg})
	if a.budget <= 0 {
		return
	}
	a.budget--
	n := a.rng.Intn(3)
	for i := 0; i < n; i++ {
		switch a.rng.Intn(3) {
		case 0: // local event, any offset (same-instant allowed)
			off := Time(a.rng.Intn(700)) * Nanosecond
			a.el.Schedule(a.el.Now()+off, a, a.rng.Uint64()%1000)
		case 1: // message to a random actor in this shard
			peers := a.w.actors
			dst := peers[a.rng.Intn(len(peers))]
			if dst.shard != a.shard {
				dst = a // fall back to self
			}
			off := Time(a.rng.Intn(900)) * Nanosecond
			a.seq++
			a.w.send(a, dst, a.el.Now()+off, DeliveryOrd(uint32(a.id+1), a.seq), 1000+a.rng.Uint64()%1000)
		default: // message to any actor, respecting the (pair) lookahead
			dst := a.w.actors[a.rng.Intn(len(a.w.actors))]
			off := a.w.minLat(a, dst) + Time(a.rng.Intn(900))*Nanosecond
			a.seq++
			a.w.send(a, dst, a.el.Now()+off, DeliveryOrd(uint32(a.id+1), a.seq), 2000+a.rng.Uint64()%1000)
		}
	}
}

// refMsg adapts a pending message delivery onto Handler for the single
// list; the arg routes to the right actor.
type refMsg struct{ dst *refActor }

func (m refMsg) OnEvent(arg uint64) { m.dst.OnEvent(arg) }

// buildRefWorld creates the actor set for one mode. lists has one entry in
// single-list mode or one per shard in sharded mode.
func buildRefWorld(seed uint64, shards int, lists []*EventList) *refWorld {
	w := &refWorld{}
	for s := 0; s < shards; s++ {
		el := lists[0]
		if len(lists) > 1 {
			el = lists[s]
		}
		for i := 0; i < refActors; i++ {
			id := s*refActors + i
			w.actors = append(w.actors, &refActor{
				w:     w,
				id:    id,
				shard: s,
				el:    el,
				rng:   NewRand(seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15),
				// The budget bounds total events; stimulus events below
				// re-seed every actor's cascade.
				budget: 40,
			})
		}
	}
	return w
}

// runRefSingle executes the workload on one shared list.
func runRefSingle(seed uint64, shards int, until Time) *refWorld {
	el := NewEventList()
	w := buildRefWorld(seed, shards, []*EventList{el})
	w.send = func(src, dst *refActor, at Time, ord uint64, arg uint64) {
		el.ScheduleKeyed(at, ord, refMsg{dst}, arg)
	}
	seedStimuli(w)
	el.RunUntil(until)
	return w
}

// runRefSharded executes the workload across shard lists under the
// windowed runner, with test-local mailboxes standing in for the fabric's
// cross-shard boxes. A serial run holds the whole CPU budget, so every
// window runs inline.
func runRefSharded(seed uint64, shards int, until Time, serial bool) *refWorld {
	w, mr := newRefSharded(seed, shards)
	if serial {
		defer returnCPUs(borrowCPUs(cpuSlots()))
	}
	mr.RunUntil(until)
	mr.Close()
	return w
}

// newRefSharded builds the sharded workload with its stimuli scheduled and
// returns it with the runner that drives it.
func newRefSharded(seed uint64, shards int) (*refWorld, *MultiRunner) {
	lists := make([]*EventList, shards)
	for i := range lists {
		lists[i] = NewEventList()
	}
	w := buildRefWorld(seed, shards, lists)
	type boxEntry struct {
		at  Time
		ord uint64
		dst *refActor
		arg uint64
	}
	boxes := make([][]boxEntry, shards*shards)
	w.send = func(src, dst *refActor, at Time, ord uint64, arg uint64) {
		if src.shard == dst.shard {
			lists[dst.shard].ScheduleKeyed(at, ord, refMsg{dst}, arg)
			return
		}
		b := &boxes[src.shard*shards+dst.shard]
		*b = append(*b, boxEntry{at: at, ord: ord, dst: dst, arg: arg})
	}
	mr := NewMultiRunner(lists, refLookahead, func() {
		for i := range boxes {
			for _, e := range boxes[i] {
				lists[e.dst.shard].ScheduleKeyed(e.at, e.ord, refMsg{e.dst}, e.arg)
			}
			boxes[i] = boxes[i][:0]
		}
	})
	seedStimuli(w)
	return w, mr
}

// seedStimuli schedules the initial kick events: several per actor, with
// deliberate timestamp collisions across actors and shards.
func seedStimuli(w *refWorld) {
	for _, a := range w.actors {
		for k := 0; k < 3; k++ {
			at := Time((a.id%4)*250+k*777) * Nanosecond
			a.el.Schedule(at, a, uint64(k))
		}
	}
}

func compareRefWorlds(t *testing.T, name string, ref, got *refWorld) {
	t.Helper()
	for i, a := range ref.actors {
		b := got.actors[i]
		if len(a.log) != len(b.log) {
			t.Fatalf("%s: actor %d saw %d events single-list, %d sharded", name, i, len(a.log), len(b.log))
		}
		for j := range a.log {
			if a.log[j] != b.log[j] {
				t.Fatalf("%s: actor %d event %d diverged: single %+v, sharded %+v",
					name, i, j, a.log[j], b.log[j])
			}
		}
		if a.el.Now() != b.el.Now() {
			t.Fatalf("%s: actor %d clock diverged: %v vs %v", name, i, a.el.Now(), b.el.Now())
		}
	}
}

// TestMultiRunnerVsSingleList drives many seeds through both engines at
// several shard widths — the always-on property test behind
// FuzzMultiRunner.
func TestMultiRunnerVsSingleList(t *testing.T) {
	const until = 200 * Microsecond
	for seed := uint64(1); seed <= 25; seed++ {
		for _, shards := range []int{2, 3, 5} {
			ref := runRefSingle(seed, shards, until)
			par := runRefSharded(seed, shards, until, false)
			compareRefWorlds(t, "parallel", ref, par)
			ser := runRefSharded(seed, shards, until, true)
			compareRefWorlds(t, "serial", ref, ser)
		}
	}
}

// FuzzMultiRunner lets the fuzzer vary the seed and shard count:
// go test -fuzz=FuzzMultiRunner ./internal/sim
func FuzzMultiRunner(f *testing.F) {
	f.Add(uint64(1), uint8(2))
	f.Add(uint64(42), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, shards uint8) {
		s := int(shards%7) + 2
		ref := runRefSingle(seed, s, 100*Microsecond)
		got := runRefSharded(seed, s, 100*Microsecond, false)
		compareRefWorlds(t, "fuzz", ref, got)
	})
}
