package sim

// Delay lanes: the sorted per-delay FIFOs the EventList picks among with a
// tournament tree beside its heap (see the EventList comment). The
// constants are fixed sizing, not tuning knobs — lanes only change where
// an event waits, never when it fires.
const (
	// maxLanes caps the lanes of one list. A packet simulation has a few
	// recurring delays per link speed and packet size class; the heap
	// takes whatever recurs beyond the cap. A power of two, so the lanes
	// are the leaves of a complete tournament tree.
	maxLanes = 16
	// delayTableBits sizes the direct-mapped delay table (32 buckets of
	// 8 bytes) that maps a push delay to its lane or counts it as a
	// candidate. Every non-cancellable push reads it, so it is kept to
	// four cache lines that stay in L1 beside a deep heap. At most 5:
	// EventList.laned has one bit per bucket.
	delayTableBits = 5
	// maxLaneDelay is the longest delay a lane can hold (about 4.3 ms):
	// the table stores delays in 32 bits.
	maxLaneDelay = 1<<32 - 1
	// lanePromote is the lead a delay must build over the other delays
	// landing in its bucket (each of its voting pushes counts +1, each
	// other delay's -1) before it gets a lane. A delay that recurs more
	// often than its bucket-mates wins within a few dozen pushes and keeps
	// the bucket; random delays practically never qualify.
	lanePromote = 8
	// laneVoteShare samples the pushes that vote: those whose ord word,
	// Fibonacci-hashed, falls below it — one in eight, deterministic, and
	// free of the periodic patterns a plain modulus of the sequence would
	// alias with (a handler pushing two delays in turn). Voting on every
	// push would tax the non-recurring delays that stay on the heap.
	laneVoteShare = 1 << 61
	// laneMinCap is a lane ring's first capacity (a power of two).
	laneMinCap = 64
)

// lane is one delay's FIFO ring, sorted by (at, ord) from head to tail.
type lane struct {
	ring []laneEvent // power-of-two length
	head int         // ring index of the earliest record
	n    int         // records queued
}

// laneEvent is a lane record: lanes hold no cancellable events, so it
// carries no slot.
type laneEvent struct {
	k   eventKey
	arg uint64
	h   Handler
}

// laneEmpty is an empty lane's head key in the tournament: it loses to
// every pending event.
var laneEmpty = eventKey{at: Infinity, ord: 1<<64 - 1}

// delayBucket is one entry of the delay table: a delay, its lead in the
// bucket's majority vote (capped at lanePromote), and its lane index + 1
// (0 while it has none). A lane whose delay is voted out of its bucket
// while empty goes back to the spares.
type delayBucket struct {
	delay uint32 // picoseconds, at most maxLaneDelay
	hits  int16
	lane  int16
}

// delayIndex is d's bucket in the delay table (Fibonacci hashing: the
// recurring delays are multiples of a few serialization and propagation
// quanta, which it spreads evenly).
func delayIndex(d uint32) uint {
	return uint(uint64(d) * 0x9E3779B97F4A7C15 >> (64 - delayTableBits))
}

// vote counts one sampled push of delay d in its bucket i, a majority
// vote: each sighting of the bucket's delay raises its lead, each sighting
// of another delay wears it down, and the other delay takes the bucket
// once the lead is zero and the holder's lane (if any) is empty. The
// delay that reaches a lead of lanePromote gets a lane.
func (el *EventList) vote(i uint, d uint32) {
	b := &el.delays[i]
	switch {
	case b.delay == d:
		if b.hits < lanePromote {
			b.hits++
		}
		if b.lane == 0 && b.hits == lanePromote {
			if b.lane = el.openLane(); b.lane != 0 {
				el.laned |= 1 << i
			}
		}
	case b.hits > 0:
		b.hits--
	case b.lane == 0:
		*b = delayBucket{delay: d, hits: 1}
	case el.lanes[b.lane-1].n == 0:
		el.spare[el.nspare] = b.lane
		el.nspare++
		el.laned &^= 1 << i
		*b = delayBucket{delay: d, hits: 1}
	}
}

// openLane hands out a spare lane, or opens the next one, and returns its
// index + 1 — or 0 when every lane is taken. A fresh lane's ring is
// allocated by its first push.
func (el *EventList) openLane() int16 {
	if el.nspare > 0 {
		el.nspare--
		return el.spare[el.nspare]
	}
	if el.nlanes == maxLanes {
		return 0
	}
	if el.nlanes == 0 {
		// The first lane readies the tournament: every head empty, and
		// every match replayed so that each node names a lane under it.
		for i := range el.heads {
			el.heads[i] = laneEmpty
		}
		for i := range el.heads {
			el.replay(i)
		}
	}
	el.nlanes++
	return int16(el.nlanes)
}

// lanePush files a record into lane li. The ring is sorted and k is never
// earlier than the tail's time (both are now+d with a monotone now), so k
// is appended, except that each tail record of the same instant with a
// larger ord (a keyed tie) moves back one slot to make room. When k
// becomes the lane's head, the lane's matches are replayed.
func (el *EventList) lanePush(li int, k eventKey, v eventVal) {
	ln := &el.lanes[li]
	if ln.n == len(ln.ring) {
		ln.grow()
	}
	ring, mask := ln.ring, len(ln.ring)-1
	j := ln.head + ln.n
	for j != ln.head {
		p := &ring[(j-1)&mask]
		if !k.less(&p.k) {
			break
		}
		ring[j&mask] = *p
		j--
	}
	ring[j&mask] = laneEvent{k: k, arg: v.arg, h: v.h}
	ln.n++
	if j == ln.head {
		el.heads[li] = k
		el.replay(li)
	}
}

// popLane takes the head record of lane li, the tournament's winner, and
// replays the lane's matches under its next head key.
func (el *EventList) popLane(li int) (Handler, uint64) {
	ln := &el.lanes[li]
	r := &ln.ring[ln.head]
	h, arg := r.h, r.arg
	r.h = nil
	ln.head = (ln.head + 1) & (len(ln.ring) - 1)
	ln.n--
	if ln.n == 0 {
		el.heads[li] = laneEmpty
	} else {
		el.heads[li] = ln.ring[ln.head].k
	}
	el.replay(li)
	return h, arg
}

// replay re-runs the four matches from lane li's leaf to the root after
// its head key changed: at each node the path's winner meets the winner
// of the sibling subtree, and a tie keeps the path's lane.
func (el *EventList) replay(li int) {
	w, s := li, li^1
	for n := (maxLanes + li) >> 1; ; n >>= 1 {
		if el.heads[s].less(&el.heads[w]) {
			w = s
		}
		el.win[n] = uint8(w)
		if n == 1 {
			return
		}
		s = int(el.win[n^1])
	}
}

// grow doubles the ring (or allocates the first one), unwrapping it so the
// head lands at index 0.
//
//simlint:allow hotalloc — lane ring storage: amortized doubling, capacity bounded by the lane's peak pending events and reused across pops
func (ln *lane) grow() {
	size := 2 * len(ln.ring)
	if size == 0 {
		size = laneMinCap
	}
	ring := make([]laneEvent, size)
	for i := 0; i < ln.n; i++ {
		ring[i] = ln.ring[(ln.head+i)&(len(ln.ring)-1)]
	}
	ln.ring, ln.head = ring, 0
}
