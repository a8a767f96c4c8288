package fabric

import (
	"ndp/internal/sim"
)

// Sink receives fully-arrived packets: the input side of a switch, a host
// stack, or an ingress queue in lossless mode.
type Sink interface {
	Receive(p *Packet)
}

// Port is a store-and-forward link transmitter: it drains its Queue one
// packet at a time at RateBps, then delivers each packet to the peer Sink
// after the link propagation Delay. Because delivery is scheduled at
// serialization-end + propagation, downstream nodes see packets only when
// fully received, which is the store-and-forward behaviour the paper's RTT
// arithmetic (7.2µs per 9KB hop at 10Gb/s) assumes.
type Port struct {
	Name    string
	Q       Queue
	RateBps int64
	Delay   sim.Time

	// UID is the port's canonical identity for equal-timestamp delivery
	// ordering (sim.DeliveryOrd). Topology builders assign UIDs in
	// construction order, which is identical no matter how the topology is
	// sharded — the keystone of shard-count-independent results. Ports
	// built outside a topology (unit tests) may leave it zero.
	UID uint32

	// Cross, when set, routes this port's deliveries through a cross-shard
	// mailbox instead of the local event list: the peer sink lives in
	// another shard, and the windowed runner injects the delivery at the
	// next window boundary.
	Cross *CrossBox

	// OnDequeue, when set, runs after each packet leaves the queue. The
	// lossless switch uses it to pull held ingress packets forward.
	OnDequeue func()

	el     *sim.EventList
	peer   Sink
	busy   bool
	paused bool

	// serializing is the packet currently on the wire; flight holds packets
	// in propagation toward the peer, in serialization-end order. Each has
	// its own delivery event, scheduled when its serialization ends at
	// now+Delay — a recurring delay, so deliveries ride the event list's
	// propagation-delay lane. One port's deliveries fire in emission
	// order (their times never decrease and their ords increase), so each
	// delivery event pops the flight head.
	serializing *Packet
	flight      ring
	emitSeq     uint64

	// Telemetry.
	BytesSent   int64
	PacketsSent int64
	DataBytes   int64    // non-control wire bytes, for utilization
	BusyTime    sim.Time // cumulative serialization time
	PauseCount  int64    // times this port was paused (PFC)
}

// NewPort creates a transmitter with the given queue discipline, line rate
// in bits per second and one-way propagation delay.
func NewPort(el *sim.EventList, name string, q Queue, rateBps int64, delay sim.Time) *Port {
	return &Port{Name: name, Q: q, RateBps: rateBps, Delay: delay, el: el}
}

// Connect attaches the receiving end of the link.
func (p *Port) Connect(peer Sink) { p.peer = peer }

// Peer returns the receiving end of the link.
func (p *Port) Peer() Sink { return p.peer }

// Enqueue offers a packet to the port's queue and starts transmission if
// the line is idle.
func (p *Port) Enqueue(pkt *Packet) {
	p.Q.Enqueue(pkt)
	p.kick()
}

// SetPaused pauses or resumes the transmitter (PFC). Pausing takes effect
// at the next packet boundary; the in-flight packet always completes.
func (p *Port) SetPaused(paused bool) {
	if paused && !p.paused {
		p.PauseCount++
	}
	p.paused = paused
	if !paused {
		p.kick()
	}
}

// Paused reports whether the transmitter is PFC-paused.
func (p *Port) Paused() bool { return p.paused }

// Busy reports whether a packet is currently serializing.
func (p *Port) Busy() bool { return p.busy }

// Port event kinds (the arg of sim.Handler events).
const (
	portSerEnd  = iota // the serializing packet has fully left the NIC
	portDeliver        // the oldest in-flight packet reached the peer
)

func (p *Port) kick() {
	if p.busy || p.paused || p.Q.Empty() {
		return
	}
	pkt := p.Q.Dequeue()
	if pkt == nil {
		return
	}
	ser := sim.TransmissionTime(int(pkt.Size), p.RateBps)
	// Mark busy (and stash the packet) before invoking OnDequeue: the
	// lossless drain hook can re-enter Enqueue -> kick on this same port.
	p.busy = true
	p.serializing = pkt
	if p.OnDequeue != nil {
		p.OnDequeue()
	}
	p.BytesSent += int64(pkt.Size)
	p.PacketsSent++
	if !pkt.IsControl() {
		p.DataBytes += int64(pkt.Size)
	}
	p.BusyTime += ser
	p.el.ScheduleAfter(ser, p, portSerEnd)
}

// OnEvent advances the port's transmit pipeline (sim.Handler).
func (p *Port) OnEvent(arg uint64) {
	switch arg {
	case portSerEnd:
		p.busy = false
		pkt := p.serializing
		p.serializing = nil
		p.emitSeq++
		at := p.el.Now() + p.Delay
		if p.Cross != nil {
			p.Cross.AddDelivery(at, sim.DeliveryOrd(p.UID, p.emitSeq), pkt, p.peer)
		} else {
			p.flight.push(pkt)
			p.el.ScheduleKeyed(at, sim.DeliveryOrd(p.UID, p.emitSeq), p, portDeliver)
		}
		p.kick()
	case portDeliver:
		if pkt := p.flight.pop(); p.peer != nil {
			p.peer.Receive(pkt)
		} else {
			Free(pkt)
		}
	}
}

// ReleasePackets frees every packet the port still holds — the one on the
// wire, the propagation flight, and the queued backlog — so a run stopped
// mid-traffic still accounts for every arena packet. Teardown only.
func (p *Port) ReleasePackets() {
	if p.serializing != nil {
		Free(p.serializing)
		p.serializing = nil
		p.busy = false
	}
	for pkt := p.flight.pop(); pkt != nil; pkt = p.flight.pop() {
		Free(pkt)
	}
	if p.Q != nil {
		for pkt := p.Q.Dequeue(); pkt != nil; pkt = p.Q.Dequeue() {
			Free(pkt)
		}
	}
}

// Utilization returns the fraction of the interval [0, now] this port spent
// serializing data (non-control) bytes.
func (p *Port) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(p.DataBytes*8) / (float64(p.RateBps) * now.Seconds())
}
