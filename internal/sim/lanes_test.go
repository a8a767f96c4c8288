package sim

import "testing"

// earnLane pushes plain events d ahead, tagged from tag0, until d has a
// lane, and returns how many it pushed — or 0 if d never earned one
// (its bucket is held by a delay whose lane still has events).
func earnLane(el *EventList, rec *tagRecorder, d Time, tag0 uint64) int {
	for n := 1; n <= 64*lanePromote; n++ {
		el.ScheduleAfter(d, rec, tag0+uint64(n-1))
		if b := &el.delays[delayIndex(uint32(d))]; b.delay == uint32(d) && b.lane != 0 {
			return n
		}
	}
	return 0
}

// fill pushes n more plain events d ahead, tagged from tag0.
func fill(el *EventList, rec *tagRecorder, d Time, n int, tag0 uint64) {
	for i := 0; i < n; i++ {
		el.ScheduleAfter(d, rec, tag0+uint64(i))
	}
}

// TestLenCountsLaneResidents pins Len to the number of pending events
// wherever they wait: the timer regression test and the benchmark's
// heap-depth metric both read it.
func TestLenCountsLaneResidents(t *testing.T) {
	el := NewEventList()
	rec := &tagRecorder{}
	tm := NewTimer(el, func() {})
	tm.Reset(Millisecond)
	n := earnLane(el, rec, 500*Nanosecond, 0)
	fill(el, rec, 500*Nanosecond, 100, 1000)
	n += earnLane(el, rec, 7200*Nanosecond, 2000)
	fill(el, rec, 7200*Nanosecond, 50, 3000)
	if el.nlanes != 2 {
		t.Fatalf("%d lanes opened, want 2", el.nlanes)
	}
	pending := n + 150
	// The heap holds the pushes made before each delay's promoting one
	// and the timer, but no lane record: the lanes sit in the tournament.
	if want := (n - 2) + 1; len(el.keys) != want {
		t.Fatalf("heap holds %d records, want %d", len(el.keys), want)
	}
	if got := el.Len(); got != pending+1 {
		t.Fatalf("Len = %d, want %d (timer + %d events, 150 of them lane-resident)", got, pending+1, pending)
	}
	for want := pending; want >= 1; want-- {
		el.Step()
		if got := el.Len(); got != want {
			t.Fatalf("Len = %d after a pop, want %d", got, want)
		}
	}
	if len(rec.log) != pending || el.NextAt() != Millisecond {
		t.Fatalf("fired %d events, next at %v; want %d and the timer at 1ms", len(rec.log), el.NextAt(), pending)
	}
}

// laneOf returns the index of the lane that holds delay d, or -1.
func laneOf(el *EventList, d Time) int {
	if b := &el.delays[delayIndex(uint32(d))]; b.delay == uint32(d) && b.lane != 0 {
		return int(b.lane - 1)
	}
	return -1
}

// TestLaneKeyedTieBeforeHead covers the one out-of-order push a lane
// takes: a keyed event at the instant every lane record shares, whose
// canonical key sorts before the plain records — including before the
// lane head, which must hand the tournament to that lane.
func TestLaneKeyedTieBeforeHead(t *testing.T) {
	const dA, dB = 500 * Nanosecond, 51200
	el := NewEventList()
	rec := &tagRecorder{}
	// Both lanes fill at the instant dA: A from time 0, B from dA-dB.
	nA := earnLane(el, rec, dA, 0)
	fill(el, rec, dA, 8, uint64(nA))
	el.RunUntil(dA - dB)
	nB := earnLane(el, rec, dB, 100)
	fill(el, rec, dB, 8, 100+uint64(nB))
	la, lb := laneOf(el, dA), laneOf(el, dB)
	if nA == 0 || nB == 0 || la < 0 || lb < 0 {
		t.Fatal("recurring delays did not earn two lanes")
	}
	if int(el.win[1]) != la {
		t.Fatalf("tournament winner is lane %d, want lane %d (its plain head was pushed first)", el.win[1], la)
	}
	el.ScheduleKeyed(dA, PFCOrd(1, 1), rec, 1002) // after every plain record
	if int(el.win[1]) != la {
		t.Fatalf("a tail push moved the tournament to lane %d", el.win[1])
	}
	el.ScheduleKeyed(dA, DeliveryOrd(5, 1), rec, 1000) // before B's head and A's
	if int(el.win[1]) != lb {
		t.Fatalf("tournament winner is lane %d after a keyed tie before every head, want lane %d", el.win[1], lb)
	}
	el.ScheduleKeyed(dA, DeliveryOrd(2, 1), rec, 1001) // before that
	el.ScheduleKeyed(dA, CommandOrd(0, 1), rec, 1003)  // between deliveries and plain
	if el.lanes[lb].n != 1+8+4 {
		t.Fatalf("lane holds %d records, want the promoting push, 8 plain and 4 keyed", el.lanes[lb].n)
	}
	el.Run()
	want := []uint64{1001, 1000, 1003}
	for i := 0; i < nA+8; i++ {
		want = append(want, uint64(i))
	}
	for i := 0; i < nB+8; i++ {
		want = append(want, 100+uint64(i))
	}
	want = append(want, 1002)
	if len(rec.log) != len(want) {
		t.Fatalf("fired %v, want %v", rec.log, want)
	}
	for i := range want {
		if rec.log[i] != want[i] {
			t.Fatalf("fired %v, want %v", rec.log, want)
		}
	}
}

// TestLaneBucketHandover checks that a delay voted into a bucket whose
// lane has emptied takes that lane over, so a set-up delay cannot pin a
// lane that steady-state traffic needs.
func TestLaneBucketHandover(t *testing.T) {
	el := NewEventList()
	rec := &tagRecorder{}
	for i := 1; el.nlanes < maxLanes; i++ {
		earnLane(el, rec, Time(i)*Microsecond, 0)
	}
	el.Run()
	// Every lane is taken and empty. A new delay colliding with lane 0's
	// bucket wears the holder down and inherits its lane.
	var d Time
	for d = 1; ; d++ {
		if b := &el.delays[delayIndex(uint32(d))]; b.lane == 1 && b.delay != uint32(d) {
			break
		}
	}
	if earnLane(el, rec, d, 0) == 0 {
		t.Fatalf("delay %v never took over its bucket's empty lane", d)
	}
	if b := &el.delays[delayIndex(uint32(d))]; b.lane != 1 || el.nlanes != maxLanes {
		t.Fatalf("delay %v got lane %d (lanes %d), want lane 1 handed over", d, b.lane, el.nlanes)
	}
	// The new holder's events ride the handed-over lane, in push order.
	rec.log = rec.log[:0]
	fill(el, rec, d, 100, 1000)
	if el.lanes[0].n != 100+1 {
		t.Fatalf("handed-over lane holds %d records, want the promoting push and 100 more", el.lanes[0].n)
	}
	el.Run()
	for i, tag := range rec.log[len(rec.log)-100:] {
		if tag != 1000+uint64(i) {
			t.Fatalf("handed-over lane fired %v, want tags 1000..1099 in order", rec.log)
		}
	}
}

// TestTournamentAllLanes opens all 16 lanes, then empties and refills
// them in random order against the sorted-slice reference. After every
// push and pop the tournament must name the lane with the earliest head,
// and the heap must stay empty: every push rides a lane.
func TestTournamentAllLanes(t *testing.T) {
	el := NewEventList()
	rec := &tagRecorder{}
	var ds []Time
	for i := 1; el.nlanes < maxLanes; i++ {
		if d := Time(i) * 37 * Nanosecond; earnLane(el, rec, d, 0) > 0 {
			ds = append(ds, d)
		}
	}
	el.Run()
	rec.log = nil
	model := &refModel{now: el.Now()}
	var modelLog []uint64
	var tag uint64
	var emitted [8]uint64
	check := func() {
		t.Helper()
		if len(el.keys) != 0 {
			t.Fatalf("heap holds %d records, want every event in a lane", len(el.keys))
		}
		best := -1
		for i := range el.lanes {
			ln := &el.lanes[i]
			if ln.n == 0 {
				continue
			}
			if head := ln.ring[ln.head].k; el.heads[i] != head {
				t.Fatalf("lane %d head key %v cached as %v", i, head, el.heads[i])
			}
			if best < 0 || el.heads[i].less(&el.heads[best]) {
				best = i
			}
		}
		if best >= 0 && int(el.win[1]) != best {
			t.Fatalf("tournament names lane %d, want lane %d", el.win[1], best)
		}
	}
	r := NewRand(7)
	for round := 0; round < 3000; round++ {
		d := ds[r.Intn(len(ds))]
		for n := r.Intn(6); n > 0; n-- {
			tag++
			if r.Intn(3) == 0 {
				uid := r.Intn(len(emitted))
				emitted[uid]++
				ord := DeliveryOrd(uint32(uid), emitted[uid])
				el.ScheduleKeyed(el.Now()+d, ord, rec, tag)
				model.scheduleKeyed(el.Now()+d, ord, tag)
			} else {
				el.ScheduleAfter(d, rec, tag)
				model.schedule(el.Now()+d, tag)
			}
			check()
		}
		pops := r.Intn(8)
		if round%500 == 499 {
			pops = el.Len() // empty every lane now and then
		}
		for ; pops > 0 && el.Step(); pops-- {
			got, _ := model.pop()
			modelLog = append(modelLog, got)
			check()
		}
	}
	for el.Step() {
		got, _ := model.pop()
		modelLog = append(modelLog, got)
	}
	if len(rec.log) != len(modelLog) || len(model.events) != 0 {
		t.Fatalf("fired %d events, model fired %d", len(rec.log), len(modelLog))
	}
	for i := range modelLog {
		if rec.log[i] != modelLog[i] {
			t.Fatalf("pop %d fired tag %d, model tag %d", i, rec.log[i], modelLog[i])
		}
	}
}
