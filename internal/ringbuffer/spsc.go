package ringbuffer

import (
	"runtime"
	"sync/atomic"
	"time"

	"raftlib/internal/stats"
)

// SPSC is a lock-free single-producer single-consumer ring. It trades
// the mutex of Ring for a pure atomic fast path: one goroutine may
// push, one may pop, with no lock on either side. Capacity changes go
// through the epoch-swap protocol in spsc_resize.go — the monitor
// publishes a new backing ring, the producer installs it at its next
// push, and the consumer drains the old epoch before following — so
// the monitor's §4.1 resize rules apply to lock-free links too, with
// zero added synchronization on the hot path (one extra uncontended
// atomic load per operation).
//
// The implementation uses monotonically increasing head/tail sequence
// counters (never wrapped), masked into a power-of-two buffer per
// epoch — the classic Lamport queue. The struct is split into three
// regions, each padded onto cache lines of its own: the producer-owned
// fields, the consumer-owned fields and the read-mostly control fields.
// A steady-state push or pop writes only its own side's lines, and it
// reads the peer's index only when its cached copy (FastForward style)
// says the ring is full or empty. A stale cache is conservative: it can
// only under-report free space or buffered data.
//
// Because the sequences are global across epochs, a shed element never
// advances tail, and this ring never evicts, the sequences are the flow
// counters: Pushes == tail and Pops == head by construction. Telemetry
// reads them directly, so no per-element counter is kept.
type SPSC[T any] struct {
	_ [64]byte

	// Producer-owned. tail is the next write sequence; headCache is the
	// newest head the producer has loaded (a lower bound on head); prod is
	// the epoch being written. The write-view state is plain (see
	// view.go): wviewT is the tail the outstanding write view was acquired
	// at. occ picks the single-element pushes whose occupancy is recorded
	// (see TryPush).
	tail      atomic.Uint64
	headCache uint64
	prod      *spscSeg[T]
	wviewOut  bool
	wviewN    int
	wviewT    uint64
	occ       stats.GapSampler
	// writerBlockSince is the UnixNano the producer began spinning on a
	// full queue (0 when not blocked); wviewSince the UnixNano the write
	// view was acquired at (0 when none is out). Both are read lock-free
	// by the monitor.
	writerBlockSince atomic.Int64
	wviewSince       atomic.Int64

	_ [64]byte

	// Consumer-owned. head is the next read sequence; tailCache is the
	// newest tail the consumer has loaded (a lower bound on tail); cons is
	// the epoch being read. viewH is the head the outstanding read view
	// was acquired at.
	head             atomic.Uint64
	tailCache        uint64
	cons             *spscSeg[T]
	viewOut          bool
	viewN            int
	viewH            uint64
	readerBlockSince atomic.Int64
	viewSince        atomic.Int64

	_ [64]byte

	// Read-mostly. active is the newest epoch, for third-party observers
	// (Cap); pending is a monitor-published swap request awaiting the
	// producer (see spsc_resize.go).
	active  atomic.Pointer[spscSeg[T]]
	pending atomic.Pointer[spscSeg[T]]

	closed atomic.Bool
	// bestEffort selects the overflow policy: a full queue sheds incoming
	// signal-free elements (counted in Telemetry.Dropped) instead of
	// spinning the producer. Unlike the mutex ring, the SPSC queue cannot
	// evict the oldest element — the head sequence is consumer-owned (plain
	// release store, no CAS) and stealing it from the producer side would
	// race a consumer mid-copy — so best effort here is drop-newest rather
	// than latest-wins. Both sides of the asymmetry satisfy the policy's
	// contract: the producer never blocks and every loss is counted.
	bestEffort atomic.Bool
	// wake, when non-nil, is the scheduler hook for readiness transitions.
	// The transition detection here is conservative (endpoints race the
	// opposing side's sequence counter): the post-publish re-load pattern in
	// notifyPushed/notifyPopped catches every transition that a concurrently
	// parking endpoint could have decided on, and the scheduler's watchdog
	// rescues the pathological remainder. See WakeHooker.
	wake atomic.Pointer[func(Wake)]

	_ [64]byte

	tel Telemetry
}

// NewSPSC returns a lock-free ring whose capacity is capacity rounded up to
// a power of two (minimum 2).
func NewSPSC[T any](capacity int) *SPSC[T] {
	q := &SPSC[T]{}
	seg := newSeg[T](capacity, 0)
	q.prod = seg
	q.cons = seg
	q.active.Store(seg)
	q.tel.flow = q.flow
	return q
}

// Len returns the number of buffered elements. A third party (the monitor)
// calls it concurrently with both endpoints, so the load order matters: head
// must be read before tail. Reading tail first can sandwich a consumer
// head-advance between the two loads and observe head > tail, which as a
// uint64 difference is a huge bogus length. With head read first the
// relation head_before <= head_now <= tail_now keeps the difference
// non-negative; the clamp guards the theoretical torn-interleaving remnant.
// A drain-and-refill sandwiched between the two loads is the mirror hazard:
// tail_now - head_before can exceed the ring size. Re-reading head after
// tail detects it seqlock-style — an unchanged head proves the difference
// was a real instantaneous occupancy (every push that set tail saw a head
// no newer than the one observed, so the producer's own full-check bounds
// it). A few retries always suffice in practice; the bounded fallback
// returns the non-negative estimate rather than spinning against a
// pathological consumer. (During an epoch-swap shrink the true occupancy
// legitimately exceeds Cap — the old epoch's backlog does not fit the new
// ring — which is why the detector re-reads instead of clamping.)
func (q *SPSC[T]) Len() int {
	var h, t uint64
	for i := 0; i < 16; i++ {
		h = q.head.Load()
		t = q.tail.Load()
		if q.head.Load() == h {
			break
		}
	}
	if t < h {
		return 0
	}
	return int(t - h)
}

// flow is the queue's Telemetry.Flow hook: the sequences are the counts.
// Head is loaded first, so a read concurrent with both endpoints never
// sees more pops than pushes.
func (q *SPSC[T]) flow() (pushes, pops uint64) {
	pops = q.head.Load()
	return q.tail.Load(), pops
}

// Cap returns the capacity of the newest epoch.
func (q *SPSC[T]) Cap() int { return len(q.active.Load().vals) }

// Kind identifies the queue implementation for reports and telemetry.
func (q *SPSC[T]) Kind() string { return "spsc" }

// SetBestEffort switches the queue's overflow policy to drop-newest: a
// full queue sheds incoming signal-free elements, counted in
// Telemetry.Dropped (never in Pushes or Evicted), instead of spinning the
// producer. Signal-carrying elements (EOF, termination) always take the
// blocking path. See the bestEffort field for why this side is
// drop-newest while the mutex ring is latest-wins.
func (q *SPSC[T]) SetBestEffort(on bool) { q.bestEffort.Store(on) }

// BestEffort reports whether the queue runs the drop-newest overflow
// policy.
func (q *SPSC[T]) BestEffort() bool { return q.bestEffort.Load() }

// Close marks the producer finished. Idempotent.
func (q *SPSC[T]) Close() {
	q.closed.Store(true)
	if p := q.wake.Load(); p != nil {
		(*p)(WakeClosed)
	}
}

// SetWakeHook installs (or, with nil, detaches) the scheduler wake hook.
// See WakeHooker for the contract.
func (q *SPSC[T]) SetWakeHook(fn func(Wake)) {
	if fn == nil {
		q.wake.Store(nil)
		return
	}
	q.wake.Store(&fn)
}

// notifyPushed fires WakeNotEmpty after a tail publish at sequence oldTail.
// The head is re-loaded AFTER the tail store: if the consumer had drained
// everything visible before this push (head == oldTail) it may be parked —
// or deciding to park — and the hook's state machine covers both. If
// head < oldTail there were unconsumed elements when the batch published,
// so the consumer cannot have parked on an empty queue whose emptiness
// postdates them.
func (q *SPSC[T]) notifyPushed(oldTail uint64) {
	if p := q.wake.Load(); p != nil && q.head.Load() == oldTail {
		(*p)(WakeNotEmpty)
	}
}

// notifyPopped fires WakeNotFull after a head publish that started from
// sequence oldHead. The tail is re-loaded AFTER the head store: if the
// producer filled the ring to capacity relative to the pre-pop head it may
// be parked on the full queue; the conservative >= catches the epoch-swap
// backlog case too (occupancy beyond the active capacity).
func (q *SPSC[T]) notifyPopped(oldHead uint64) {
	p := q.wake.Load()
	if p == nil {
		return
	}
	if q.tail.Load()-oldHead >= uint64(len(q.active.Load().vals)) {
		(*p)(WakeNotFull)
	}
}

// Closed reports whether the producer closed the queue.
func (q *SPSC[T]) Closed() bool { return q.closed.Load() }

// TryPush appends v without blocking; it reports whether the element was
// accepted and returns ErrClosed on a closed queue. A pending epoch swap
// is installed first, so a full old ring never wedges the producer once
// the monitor has granted more space.
//
// The consumer's head is re-read only when the cached copy says the ring
// is full, and on the pushes whose occupancy is recorded: recording every
// push exactly would cost a head read (a consumer-owned line) per
// element. Those pushes are a random sample, one in occStride on average
// (stats.GapSampler), and each records with its gap as weight, so the
// histogram's bucket totals track the push count and its mean and
// quantiles stay unbiased.
func (q *SPSC[T]) TryPush(v T, sig Signal) (bool, error) {
	if q.closed.Load() {
		return false, ErrClosed
	}
	t := q.tail.Load()
	if q.pending.Load() != nil {
		q.install(t)
	}
	s := q.prod
	if s.freeAt(t, q.headCache) == 0 {
		q.headCache = q.head.Load()
		if s.freeAt(t, q.headCache) == 0 {
			return false, nil // full
		}
	}
	i := (t - s.base) & s.mask
	s.vals[i] = v
	s.sigs[i] = sig
	q.tail.Store(t + 1) // release: publishes the slot
	if !q.occ.Skip() {
		w := q.occ.Draw(occStride, 0)
		q.headCache = q.head.Load()
		q.tel.recordOcc(int(t+1-q.headCache), uint64(w))
	}
	q.notifyPushed(t)
	return true, nil
}

// Push appends v, spinning (with escalating back-off) while the queue is
// full. It returns ErrClosed if the queue is closed.
func (q *SPSC[T]) Push(v T, sig Signal) error {
	var spins int
	var blockedAt int64
	for {
		ok, err := q.TryPush(v, sig)
		if err != nil {
			q.clearWriterBlock(blockedAt)
			return err
		}
		if ok {
			q.clearWriterBlock(blockedAt)
			return nil
		}
		if q.bestEffort.Load() && sig == SigNone {
			q.clearWriterBlock(blockedAt)
			q.tel.Dropped.Inc()
			return nil
		}
		if blockedAt == 0 {
			blockedAt = nowNanos()
			q.writerBlockSince.Store(blockedAt)
		}
		backoff(&spins, &q.tel)
	}
}

// PushN appends all of vs with their parallel signals in bulk: the batch is
// copied into the free region with at most two copies (wrap-around split)
// and published with a single atomic tail store, instead of one store per
// element. sigs may be nil (every element carries SigNone) or must have
// len(vs) entries. PushN spins (escalating back-off) while the queue is full
// and returns ErrClosed on a closed queue. A batch that meets an epoch swap
// is split at the boundary: the remainder of the old ring is filled, the
// swap installs, and the rest of the batch lands in the new ring.
func (q *SPSC[T]) PushN(vs []T, sigs []Signal) error {
	if sigs != nil && len(sigs) != len(vs) {
		panic("ringbuffer: PushN signal slice length mismatch")
	}
	var spins int
	var blockedAt int64
	for len(vs) > 0 {
		if q.closed.Load() {
			q.clearWriterBlock(blockedAt)
			return ErrClosed
		}
		t := q.tail.Load()
		if q.pending.Load() != nil {
			q.install(t)
		}
		s := q.prod
		h := q.head.Load()
		q.headCache = h
		free := s.freeAt(t, h)
		if free == 0 {
			if q.bestEffort.Load() {
				// Shed the incoming signal-free prefix; a signal-carrying
				// element falls through to the blocking spin so control
				// flow (EOF) is never lost.
				shed := 0
				for shed < len(vs) && (sigs == nil || sigs[shed] == SigNone) {
					shed++
				}
				if shed > 0 {
					q.tel.Dropped.Add(uint64(shed))
					vs = vs[shed:]
					if sigs != nil {
						sigs = sigs[shed:]
					}
					continue
				}
			}
			if blockedAt == 0 {
				blockedAt = nowNanos()
				q.writerBlockSince.Store(blockedAt)
			}
			backoff(&spins, &q.tel)
			continue
		}
		k := min(free, len(vs))
		i := int((t - s.base) & s.mask)
		first := min(k, len(s.vals)-i)
		copy(s.vals[i:], vs[:first])
		copy(s.vals, vs[first:k])
		if sigs == nil {
			clearSignals(s.sigs[i : i+first])
			clearSignals(s.sigs[:k-first])
		} else {
			copy(s.sigs[i:], sigs[:first])
			copy(s.sigs, sigs[first:k])
		}
		q.tail.Store(t + uint64(k)) // release: publishes the whole batch
		q.tel.recordOcc(int(t+uint64(k)-h), 1)
		q.notifyPushed(t)
		vs = vs[k:]
		if sigs != nil {
			sigs = sigs[k:]
		}
		spins = 0
	}
	q.clearWriterBlock(blockedAt)
	return nil
}

// PopN removes up to len(dst) elements in bulk, spinning until at least one
// is available: the batch is copied out with at most two copies and consumed
// with a single atomic head store. When sigs is non-nil its first n entries
// receive the elements' synchronized signals. Once the queue is closed and
// drained PopN returns (0, ErrClosed).
func (q *SPSC[T]) PopN(dst []T, sigs []Signal) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	var spins int
	var blockedAt int64
	for {
		n, err := q.DrainTo(dst, sigs)
		if n > 0 || err != nil {
			q.clearReaderBlock(blockedAt)
			return n, err
		}
		if blockedAt == 0 {
			blockedAt = nowNanos()
			q.readerBlockSince.Store(blockedAt)
		}
		backoff(&spins, &q.tel)
	}
}

// DrainTo is the non-blocking PopN: it removes whatever is buffered, up to
// len(dst) elements, returning 0 with a nil error when the queue is empty
// but open and (0, ErrClosed) once it is closed and drained. A drain that
// crosses an epoch boundary copies each epoch's contribution separately
// (the batch splits at the seal) and still publishes one head advance for
// the whole batch.
func (q *SPSC[T]) DrainTo(dst []T, sigs []Signal) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	h := q.head.Load()
	h0 := h
	t := q.loadTail()
	if t == h {
		if !q.closed.Load() {
			return 0, nil
		}
		// Re-check emptiness after observing closed: the producer may
		// have pushed between our tail load and its Close.
		t = q.loadTail()
		if t == h {
			return 0, ErrClosed
		}
	}
	total := 0
	for total < len(dst) && h < t {
		s := q.segFor(h)
		limit := t
		if sealed := s.sealedAt.Load(); sealed < limit {
			limit = sealed // this epoch ends before the tail
		}
		n := min(int(limit-h), len(dst)-total)
		i := int((h - s.base) & s.mask)
		first := min(n, len(s.vals)-i)
		copy(dst[total:], s.vals[i:i+first])
		copy(dst[total+first:total+n], s.vals)
		if sigs != nil {
			copy(sigs[total:], s.sigs[i:i+first])
			copy(sigs[total+first:total+n], s.sigs)
		}
		// Release payload references so the GC can reclaim popped elements.
		var zero T
		for j := 0; j < first; j++ {
			s.vals[i+j] = zero
		}
		for j := 0; j < n-first; j++ {
			s.vals[j] = zero
		}
		h += uint64(n)
		total += n
	}
	q.head.Store(h) // release: consumes the whole batch
	if total > 0 {
		q.notifyPopped(h0)
	}
	return total, nil
}

func (q *SPSC[T]) clearWriterBlock(blockedAt int64) {
	if blockedAt != 0 {
		q.writerBlockSince.Store(0)
		q.tel.WriteBlockNs.Add(uint64(nowNanos() - blockedAt))
	}
}

// TryPop removes the oldest element without blocking. ok reports whether an
// element was returned; err is ErrClosed once the queue is closed and empty.
// The producer's tail is re-read only when the cached copy says the ring is
// empty. Every consumer path that advances head refreshes the cache first
// (loadTail), so head never passes it; the test is >= rather than == so a
// cache that did fall behind head would still force a refresh.
func (q *SPSC[T]) TryPop() (v T, s Signal, ok bool, err error) {
	h := q.head.Load()
	if h >= q.tailCache && h == q.loadTail() {
		if !q.closed.Load() {
			return v, SigNone, false, nil
		}
		// Re-check emptiness after observing closed: the producer may
		// have pushed between our tail load and its Close.
		if h == q.loadTail() {
			return v, SigNone, false, ErrClosed
		}
	}
	seg := q.segFor(h)
	i := (h - seg.base) & seg.mask
	v = seg.vals[i]
	s = seg.sigs[i]
	var zero T
	seg.vals[i] = zero
	q.head.Store(h + 1)
	q.notifyPopped(h)
	return v, s, true, nil
}

// loadTail reads the producer's tail and refreshes the consumer's cached
// copy. Consumer-only.
func (q *SPSC[T]) loadTail() uint64 {
	t := q.tail.Load()
	q.tailCache = t
	return t
}

// Pop removes the oldest element, spinning while the queue is empty. Once
// the queue is closed and drained it returns ErrClosed.
func (q *SPSC[T]) Pop() (T, Signal, error) {
	var spins int
	var blockedAt int64
	for {
		v, s, ok, err := q.TryPop()
		if err != nil {
			q.clearReaderBlock(blockedAt)
			var zero T
			return zero, SigNone, err
		}
		if ok {
			q.clearReaderBlock(blockedAt)
			return v, s, nil
		}
		if blockedAt == 0 {
			blockedAt = nowNanos()
			q.readerBlockSince.Store(blockedAt)
		}
		backoff(&spins, &q.tel)
	}
}

func (q *SPSC[T]) clearReaderBlock(blockedAt int64) {
	if blockedAt != 0 {
		q.readerBlockSince.Store(0)
		q.tel.ReadBlockNs.Add(uint64(nowNanos() - blockedAt))
	}
}

// WriterBlockedFor returns how long the producer has been spinning on a
// full queue, or zero.
func (q *SPSC[T]) WriterBlockedFor() time.Duration {
	since := q.writerBlockSince.Load()
	if since == 0 {
		return 0
	}
	return time.Duration(nowNanos() - since)
}

// ReaderStarvedFor returns how long the consumer has been spinning on an
// empty queue, or zero.
func (q *SPSC[T]) ReaderStarvedFor() time.Duration {
	since := q.readerBlockSince.Load()
	if since == 0 {
		return 0
	}
	return time.Duration(nowNanos() - since)
}

// PendingDemand always returns 0: SPSC consumers cannot request windows.
func (q *SPSC[T]) PendingDemand() int { return 0 }

// Telemetry returns the queue's performance counters.
func (q *SPSC[T]) Telemetry() *Telemetry { return &q.tel }

// The escalation a blocked SPSC endpoint follows: spinLimit pure
// busy-spins, then Gosched yields until yieldLimit total iterations, then
// timed sleeps of spinSleep each. The tier transitions (spin→yield and
// yield→sleep) are counted in the queue's Telemetry so the contention a
// link suffers is directly observable.
const (
	spinLimit  = 64
	yieldLimit = 256
	spinSleep  = 10 * time.Microsecond
)

// backoff escalates from busy spinning to Gosched to short sleeps so a
// blocked side does not monopolize a core indefinitely, recording each tier
// transition in the queue's telemetry.
func backoff(spins *int, tel *Telemetry) {
	*spins++
	switch {
	case *spins < spinLimit:
		// busy spin
	case *spins < yieldLimit:
		if *spins == spinLimit {
			tel.SpinYields.Inc()
		}
		runtime.Gosched()
	default:
		if *spins == yieldLimit {
			tel.SpinSleeps.Inc()
		}
		time.Sleep(spinSleep)
	}
}

var _ Queue = (*SPSC[int])(nil)
