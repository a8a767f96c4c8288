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
	// The heap holds the pushes made before each delay's promoting one,
	// the timer, and one head marker per lane.
	if want := (n - 2) + 1 + 2; len(el.keys) != want {
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

// TestLaneKeyedTieBeforeHead covers the one out-of-order push a lane
// takes: a keyed event at the instant every lane record shares, whose
// canonical key sorts before the plain records — including before the
// lane head, which moves the lane's heap marker up.
func TestLaneKeyedTieBeforeHead(t *testing.T) {
	const d = 500 * Nanosecond
	el := NewEventList()
	rec := &tagRecorder{}
	n := earnLane(el, rec, d, 0)
	if n == 0 {
		t.Fatal("recurring delay did not earn a lane")
	}
	fill(el, rec, d, 8, uint64(n))
	el.ScheduleKeyed(d, PFCOrd(1, 1), rec, 1002)      // after every plain record
	el.ScheduleKeyed(d, DeliveryOrd(5, 1), rec, 1000) // before the lane head
	el.ScheduleKeyed(d, DeliveryOrd(2, 1), rec, 1001) // before that
	el.ScheduleKeyed(d, CommandOrd(0, 1), rec, 1003)  // between deliveries and plain
	if el.lanes[0].n != 1+8+4 {
		t.Fatalf("lane holds %d records, want the promoting push, 8 plain and 4 keyed", el.lanes[0].n)
	}
	el.Run()
	want := []uint64{1001, 1000, 1003}
	for i := 0; i < n+8; i++ {
		want = append(want, uint64(i))
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
	old := el.lanes[0]
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
	if el.lanes[0].slot != old.slot {
		t.Fatal("handed-over lane lost its slot")
	}
}
