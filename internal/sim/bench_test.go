package sim

import "testing"

// BenchmarkEventListChurn measures raw scheduler throughput: schedule one
// event per step at a random-ish future offset, pop the earliest. This is
// the per-packet overhead floor of every simulation in the repository.
func BenchmarkEventListChurn(b *testing.B) {
	el := NewEventList()
	r := NewRand(1)
	// Keep a standing population of events, as real simulations do.
	for i := 0; i < 1024; i++ {
		el.At(Time(r.Intn(1_000_000)), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el.After(Time(r.Intn(10_000))*Nanosecond, func() {})
		el.Step()
	}
}

type nopHandler struct{ n uint64 }

func (h *nopHandler) OnEvent(arg uint64) { h.n += arg }

// BenchmarkEventListChurnTyped is the same churn on the typed Handler path
// the hot call-sites use — no closure per event.
func BenchmarkEventListChurnTyped(b *testing.B) {
	el := NewEventList()
	r := NewRand(1)
	h := &nopHandler{}
	for i := 0; i < 1024; i++ {
		el.Schedule(Time(r.Intn(1_000_000)), h, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el.ScheduleAfter(Time(r.Intn(10_000))*Nanosecond, h, uint64(i))
		el.Step()
	}
}

// BenchmarkEventListLanes replays the push mix of a full-load NDP
// permutation (128-host FatTree): about 900 standing events; per step one
// push of +51.2 ns (header-only serialization, plain), +500 ns (link
// delivery, keyed from ~700 emitting ports) or +7.2 us (9 KB
// serialization, plain), plus a 3% tail of random delays — the delays
// that dominate real runs recur and ride delay lanes, the tail takes the
// heap. Must report 0 allocs/op: lane rings are grown during warm-up.
func BenchmarkEventListLanes(b *testing.B) {
	const emitters = 700
	el := NewEventList()
	r := NewRand(1)
	h := &nopHandler{}
	var emitted [emitters]uint64
	push := func() {
		switch p := r.Intn(100); {
		case p < 40:
			el.ScheduleAfter(51200, h, 1)
		case p < 75:
			uid := r.Intn(emitters)
			emitted[uid]++
			el.ScheduleKeyed(el.Now()+500*Nanosecond, DeliveryOrd(uint32(uid), emitted[uid]), h, 1)
		case p < 97:
			el.ScheduleAfter(7200*Nanosecond, h, 1)
		default:
			el.ScheduleAfter(Time(r.Intn(10_000))*Nanosecond, h, 1)
		}
	}
	for i := 0; i < 900; i++ {
		push()
	}
	for i := 0; i < 100_000; i++ {
		push()
		el.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
		el.Step()
	}
}

// thinkHandler is a closed-loop client's think-time command: when one
// fires it schedules the next, 1–5 ms ahead, so a standing population of
// far-future keyed commands stays in the heap.
type thinkHandler struct {
	el  *EventList
	r   *Rand
	seq uint64
}

func (t *thinkHandler) OnEvent(uid uint64) {
	t.seq++
	t.el.ScheduleKeyed(t.el.Now()+Millisecond+Time(t.r.Intn(4000))*Microsecond, CommandOrd(uint32(uid), t.seq), t, uid)
}

// BenchmarkEventListLanesRPC is BenchmarkEventListLanes shaped like a
// closed-loop RPC run (216-host 4:1 FatTree): about 1,000 far-future
// keyed think-time commands stand in the heap, and every step pushes one
// of 12 recurring delays — header and full-packet serialization, keyed
// link deliveries, and nine rarer ones — then pops the earliest event.
// Seven of the delays win lanes; the others lose their delay-table
// bucket and join the heap. A lane pop should not pay for the heap's
// depth. Must report 0 allocs/op.
func BenchmarkEventListLanesRPC(b *testing.B) {
	const emitters, clients = 1000, 1000
	el := NewEventList()
	r := NewRand(1)
	h := &nopHandler{}
	think := &thinkHandler{el: el, r: NewRand(2)}
	for uid := uint64(0); uid < clients; uid++ {
		think.OnEvent(uid)
	}
	var emitted [emitters]uint64
	push := func() {
		switch p := r.Intn(100); {
		case p < 30:
			el.ScheduleAfter(51200, h, 1)
		case p < 65:
			uid := r.Intn(emitters)
			emitted[uid]++
			el.ScheduleKeyed(el.Now()+500*Nanosecond, DeliveryOrd(uint32(uid), emitted[uid]), h, 1)
		case p < 85:
			el.ScheduleAfter(7200*Nanosecond, h, 1)
		default:
			el.ScheduleAfter(Time(3+r.Intn(9))*640*Nanosecond, h, 1)
		}
	}
	for i := 0; i < 900; i++ {
		push()
	}
	for i := 0; i < 100_000; i++ {
		push()
		el.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
		el.Step()
	}
}

// BenchmarkTimerReset measures the restartable-timer path (every data
// packet sent by every transport resets an RTO timer).
func BenchmarkTimerReset(b *testing.B) {
	el := NewEventList()
	tm := NewTimer(el, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(Millisecond)
		if i%64 == 0 {
			el.RunUntil(el.Now() + Microsecond)
		}
	}
}

// BenchmarkRand measures the RNG used for every ECMP/path/coin decision.
func BenchmarkRand(b *testing.B) {
	r := NewRand(7)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
