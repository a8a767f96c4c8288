package sim

import (
	"testing"
)

// This file checks the scheduler — delay lanes and their tournament beside
// the indexed heap — against a naive reference model: a flat slice popped by linear
// minimum scan over (time, ord). The model is obviously correct; the
// scheduler must match it operation for operation, including
// equal-timestamp FIFO ties, keyed same-instant ties in arbitrary order,
// clamped past-time pushes, interleaved cancels and in-place reschedules.

type refEvent struct {
	at  Time
	ord uint64
	tag uint64
}

type refModel struct {
	now    Time
	seq    uint64
	events []refEvent
}

func (m *refModel) clamp(t Time) Time {
	if t < m.now {
		return m.now
	}
	return t
}

// schedule models a plain push: FIFO among equal times via the sequence.
func (m *refModel) schedule(t Time, tag uint64) {
	m.seq++
	m.scheduleKeyed(t, ordNormal|m.seq, tag)
}

func (m *refModel) scheduleKeyed(t Time, ord uint64, tag uint64) {
	m.events = append(m.events, refEvent{at: m.clamp(t), ord: ord, tag: tag})
}

func (m *refModel) minIndex() int {
	best := -1
	for i, e := range m.events {
		if best < 0 || e.at < m.events[best].at ||
			(e.at == m.events[best].at && e.ord < m.events[best].ord) {
			best = i
		}
	}
	return best
}

// pop fires the earliest event, returning its tag, or false when empty.
func (m *refModel) pop() (uint64, bool) {
	i := m.minIndex()
	if i < 0 {
		return 0, false
	}
	e := m.events[i]
	m.events = append(m.events[:i], m.events[i+1:]...)
	m.now = e.at
	return e.tag, true
}

// nextAt is the earliest pending time, or Infinity.
func (m *refModel) nextAt() Time {
	if i := m.minIndex(); i >= 0 {
		return m.events[i].at
	}
	return Infinity
}

func (m *refModel) cancel(tag uint64) bool {
	for i, e := range m.events {
		if e.tag == tag {
			m.events = append(m.events[:i], m.events[i+1:]...)
			return true
		}
	}
	return false
}

func (m *refModel) reschedule(tag uint64, t Time) bool {
	for i := range m.events {
		if m.events[i].tag == tag {
			m.seq++
			m.events[i].at = m.clamp(t)
			m.events[i].ord = ordNormal | m.seq
			return true
		}
	}
	return false
}

// tagRecorder logs fired tags from the EventList side.
type tagRecorder struct{ log []uint64 }

func (r *tagRecorder) OnEvent(arg uint64) { r.log = append(r.log, arg) }

// refRunDelays are the delays of the fixed-delay push runs: zero, a
// past-time push (clamped, so it shares the zero-delay lane), the three
// delays that dominate a permutation run, one too long for any lane, and
// more recurring delays than there are lanes, so the op stream exercises
// both promotion and the heap fallback once every lane is taken.
var refRunDelays = func() []Time {
	ds := []Time{0, -3 * Nanosecond, 51200, 500 * Nanosecond, 7200 * Nanosecond, 5 * Millisecond}
	for i := Time(1); len(ds) < maxLanes+8; i++ {
		ds = append(ds, i*37*Nanosecond)
	}
	return ds
}()

// runSchedulerOps drives an EventList and the reference model through the
// same operation stream and fails the test on any divergence. Each byte
// pair of ops selects an operation (low four bits of the first byte, its
// high four bits a parameter) and a time offset, so the corpus is
// trivially minimizable by the fuzzer. It returns the drained list so
// callers can check which machinery the stream exercised.
func runSchedulerOps(t *testing.T, ops []byte) *EventList {
	t.Helper()
	el := NewEventList()
	model := &refModel{}
	rec := &tagRecorder{}
	var modelLog []uint64
	var nextTag uint64
	var keySeq [3][8]uint64 // per (class, uid) emission sequence

	// Live cancellable events, in creation order so picks are deterministic.
	// EventIDs recycle once an event fires or is cancelled, so entries must
	// be pruned (fired) or removed (cancelled) before the id can be reused —
	// otherwise a stale entry would alias a newer event's id.
	type liveEv struct {
		tag uint64
		id  EventID
	}
	var live []liveEv
	fired := make(map[uint64]bool)
	pruneLive := func() {
		kept := live[:0]
		for _, le := range live {
			if !fired[le.tag] {
				kept = append(kept, le)
			}
		}
		live = kept
	}

	step := func() {
		stepped := el.Step()
		tag, ok := model.pop()
		if stepped != ok {
			t.Fatalf("step mismatch: heap stepped=%v, model had event=%v", stepped, ok)
		}
		if !ok {
			return
		}
		modelLog = append(modelLog, tag)
		fired[tag] = true
		if el.Now() != model.now {
			t.Fatalf("clock mismatch after firing tag %d: heap %v, model %v", tag, el.Now(), model.now)
		}
	}
	plain := func(at Time) {
		nextTag++
		el.Schedule(at, rec, nextTag)
		model.schedule(at, nextTag)
	}
	// keyed pushes one canonical-key event; p picks the ord class
	// (delivery, command, PFC) and the emitter uid.
	keyed := func(at Time, p int) {
		class, uid := p%3, p/3%8
		keySeq[class][uid]++
		ord := [3]func(uint32, uint64) uint64{DeliveryOrd, CommandOrd, PFCOrd}[class](uint32(uid), keySeq[class][uid])
		nextTag++
		el.ScheduleKeyed(at, ord, rec, nextTag)
		model.scheduleKeyed(at, ord, nextTag)
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, param, off := ops[i]&15, int(ops[i]>>4), Time(ops[i+1])
		at := el.Now() + (off-16)*Nanosecond // occasionally in the past: clamp path
		switch op {
		case 0, 1: // typed handler event
			plain(at)
		case 2: // closure fallback event
			nextTag++
			tag := nextTag
			el.At(at, func() { rec.log = append(rec.log, tag) })
			model.schedule(at, tag)
		case 3, 4: // cancellable event
			pruneLive()
			nextTag++
			id := el.ScheduleCancelable(at, rec, nextTag)
			model.schedule(at, nextTag)
			live = append(live, liveEv{tag: nextTag, id: id})
		case 5: // cancel a live event
			pruneLive()
			if len(live) > 0 {
				pick := int(off) % len(live)
				le := live[pick]
				got := el.Cancel(le.id)
				want := model.cancel(le.tag)
				if got != want {
					t.Fatalf("cancel(tag %d) mismatch: heap %v, model %v", le.tag, got, want)
				}
				live = append(live[:pick], live[pick+1:]...)
			}
		case 6: // reschedule a live event
			pruneLive()
			if len(live) > 0 {
				le := live[int(off/2)%len(live)]
				got := el.Reschedule(le.id, at)
				want := model.reschedule(le.tag, at)
				if got != want {
					t.Fatalf("reschedule(tag %d) mismatch: heap %v, model %v", le.tag, got, want)
				}
			}
		case 7, 8: // pop
			step()
		case 9, 10: // keyed event: a same-instant tie in arbitrary key order
			keyed(at, param+int(off))
		case 11, 12: // a run of pushes at one fixed delay, plain and keyed mixed
			d := refRunDelays[int(off)%len(refRunDelays)]
			r := NewRand(uint64(ops[i])<<8 | uint64(off))
			for n := 0; n < 4*(param+1); n++ {
				if r.Intn(3) == 0 {
					keyed(el.Now()+d, r.Intn(24))
				} else {
					plain(el.Now() + d)
				}
			}
		case 13: // RunUntil: fires through the deadline, then sets the clock
			deadline := el.Now() + off*Nanosecond
			for model.nextAt() <= deadline {
				tag, _ := model.pop()
				modelLog = append(modelLog, tag)
				fired[tag] = true
			}
			model.now = max(model.now, deadline)
			el.RunUntil(deadline)
		case 14: // RunBefore: fires strictly before the limit, clock untouched
			limit := el.Now() + off*Nanosecond
			for model.nextAt() < limit {
				tag, _ := model.pop()
				modelLog = append(modelLog, tag)
				fired[tag] = true
			}
			el.RunBefore(limit)
		case 15: // NextAt agrees
			if got, want := el.NextAt(), model.nextAt(); got != want {
				t.Fatalf("NextAt mismatch after op %d: heap %v, model %v", i, got, want)
			}
		}
		if el.Now() != model.now {
			t.Fatalf("clock mismatch after op %d: heap %v, model %v", i, el.Now(), model.now)
		}
		if el.Len() != len(model.events) {
			t.Fatalf("pending count mismatch after op %d: heap %d, model %d", i, el.Len(), len(model.events))
		}
	}
	// Drain both completely; the full pop order must match.
	for el.Len() > 0 || len(model.events) > 0 {
		step()
	}
	if len(rec.log) != len(modelLog) {
		t.Fatalf("fired %d events, model fired %d", len(rec.log), len(modelLog))
	}
	for i := range rec.log {
		if rec.log[i] != modelLog[i] {
			t.Fatalf("pop order diverged at %d: heap fired tag %d, model tag %d\nheap  %v\nmodel %v",
				i, rec.log[i], modelLog[i], rec.log, modelLog)
		}
	}
	return el
}

// TestSchedulerVsReference drives long random op streams from fixed seeds —
// the always-on property test behind FuzzEventList. The streams must reach
// the lane cap, or they would no longer cover promotion and the heap
// fallback.
func TestSchedulerVsReference(t *testing.T) {
	capped := 0
	for seed := uint64(1); seed <= 50; seed++ {
		r := NewRand(seed)
		ops := make([]byte, 2000)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		if runSchedulerOps(t, ops).nlanes == maxLanes {
			capped++
		}
	}
	if capped == 0 {
		t.Fatal("no op stream filled every lane")
	}
}

// FuzzEventList lets the fuzzer hunt for op interleavings the random
// streams miss: go test -fuzz=FuzzEventList ./internal/sim
func FuzzEventList(f *testing.F) {
	f.Add([]byte{0, 20, 3, 10, 7, 0, 5, 0, 7, 0})
	f.Add([]byte{3, 5, 3, 5, 6, 1, 6, 200, 7, 0, 7, 0})
	f.Add([]byte{2, 30, 0, 30, 3, 30, 5, 1, 7, 9})
	// Fixed-delay runs long enough to promote lanes, then keyed ties, a
	// clock jump and a pop interleaved with a cancellable push.
	f.Add([]byte{0xfb, 3, 0xfb, 3, 0x29, 16, 0x3c, 1, 0x1d, 70, 0x47, 0, 0xfc, 0})
	f.Add([]byte{0xfb, 2, 0xfb, 2, 0x0d, 50, 0x1a, 66, 0x29, 66, 0x03, 66, 0x27, 0, 0x0e, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runSchedulerOps(t, ops)
	})
}

// TestTimerResetBoundedHeap is the regression test for the ghost-entry leak:
// Reset/Stop used to abandon a dead closure in the heap until its old expiry
// time, so an RTO-heavy sender grew the heap by one entry per reset. A timer
// must contribute at most one pending event no matter how often it is
// re-armed.
func TestTimerResetBoundedHeap(t *testing.T) {
	el := NewEventList()
	fired := 0
	tm := NewTimer(el, func() { fired++ })
	const resets = 10_000
	for i := 0; i < resets; i++ {
		tm.Reset(Millisecond)
		if i%64 == 0 {
			el.RunUntil(el.Now() + Microsecond)
		}
		if n := el.Len(); n > 1 {
			t.Fatalf("heap holds %d events after %d resets, want <= 1 (ghost-entry leak)", n, i+1)
		}
	}
	// Stop must remove the in-heap entry entirely, not leave a tombstone.
	tm.Stop()
	if n := el.Len(); n != 0 {
		t.Fatalf("heap holds %d events after Stop, want 0", n)
	}
	if fired != 0 {
		t.Fatalf("timer fired %d times while being continually reset", fired)
	}
	// And a final arm still works.
	tm.Reset(Microsecond)
	el.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times after final arm, want 1", fired)
	}
}

// TestCancelReschedulePublicAPI covers the id lifecycle edges: double
// cancel, cancel after fire, EventTime/Pending on dead ids, and id reuse.
func TestCancelReschedulePublicAPI(t *testing.T) {
	el := NewEventList()
	rec := &tagRecorder{}
	id := el.ScheduleCancelable(5*Microsecond, rec, 1)
	if !el.Pending(id) || el.EventTime(id) != 5*Microsecond {
		t.Fatalf("live event not visible: pending=%v at=%v", el.Pending(id), el.EventTime(id))
	}
	if !el.Reschedule(id, 2*Microsecond) {
		t.Fatal("reschedule of live event failed")
	}
	if el.EventTime(id) != 2*Microsecond {
		t.Fatalf("EventTime after reschedule = %v, want 2us", el.EventTime(id))
	}
	if !el.Cancel(id) {
		t.Fatal("cancel of live event failed")
	}
	if el.Cancel(id) {
		t.Fatal("double cancel succeeded")
	}
	if el.Reschedule(id, Microsecond) {
		t.Fatal("reschedule of cancelled event succeeded")
	}
	if el.Pending(id) || el.EventTime(id) != Infinity {
		t.Fatal("cancelled event still visible")
	}
	if el.Pending(NoEvent) || el.Cancel(NoEvent) {
		t.Fatal("NoEvent behaved like a live id")
	}

	id2 := el.ScheduleCancelable(Microsecond, rec, 2)
	el.Run()
	if len(rec.log) != 1 || rec.log[0] != 2 {
		t.Fatalf("fired %v, want [2] (cancelled event must not fire)", rec.log)
	}
	if el.Cancel(id2) {
		t.Fatal("cancel after fire succeeded")
	}
}
