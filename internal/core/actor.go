package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"raftlib/internal/ringbuffer"
	"raftlib/internal/stats"
	"raftlib/internal/trace"
)

// Actor is the engine's view of one schedulable compute kernel. The raft
// package wraps each user kernel into an Actor; the engine and schedulers
// never see kernel types directly.
type Actor struct {
	// ID is the actor's index within the engine (dense, 0-based).
	ID int
	// Name is a human-readable label used in reports and errors.
	Name string
	// Place is the mapper-assigned resource (index into the topology's
	// place list); -1 when unmapped.
	Place int
	// Weight is the relative compute cost estimate used by the mapper.
	Weight float64

	// Init, if non-nil, runs once before the first Step.
	Init func() error
	// Step performs one kernel invocation.
	Step func() Status
	// Finish, if non-nil, runs once after the final Step (regardless of
	// whether the actor stopped voluntarily or the engine shut it down);
	// it must close the actor's output queues.
	Finish func()

	// Service counts every invocation and times a random sample of them
	// (see StepTimed); the monitor reads it to estimate service rates for
	// bottleneck detection and modeling.
	Service stats.ServiceTimer

	// Virtual marks actors that complete instantly (e.g. the paper's
	// for_each source, which "appears as a kernel only momentarily",
	// §4.2): the engine runs Finish immediately and never schedules Step.
	Virtual bool

	// Ready, when non-nil, reports whether one Step can make progress
	// without blocking (inputs have data or are closed; outputs have
	// space or are closed). Cooperative schedulers consult it before
	// dispatching so a blocked kernel cannot capture a pooled worker;
	// the goroutine-per-kernel scheduler ignores it.
	Ready func() bool

	// Restarts counts supervised recoveries of this actor: each time the
	// resilience supervisor absorbs a panic and restarts the kernel the
	// counter advances. It doubles as a progress signal for the deadlock
	// watch (a kernel sleeping through restart backoff is alive, not
	// frozen) and feeds the restart columns of reports and LiveStats.
	Restarts stats.Counter

	// Finished is set by the scheduler once the actor's lifecycle ends;
	// the monitor's deadlock detector ignores finished actors.
	Finished atomic.Bool

	// Gate, when non-nil, lets the runtime hold the actor at a step
	// boundary (graph-rewrite splices) or retire it mid-run. Schedulers
	// poll it between invocations; the open-gate cost is one atomic load.
	Gate *Gate

	// Trace, when non-nil, receives RunStart/RunEnd events for sampled
	// invocations (and restart/checkpoint events from the supervisor).
	// TraceID is the actor id used on the bus — it matches ID for plain
	// actors but replicas of one kernel share their group's id.
	Trace   *trace.Recorder
	TraceID int32
	// TraceStride is the mean gap S between sampled invocations: StepTimed
	// times one invocation in S on average, and a sampled invocation is also
	// the one that emits its RunStart/RunEnd pair when Trace is set. 0 and
	// 1 both mean every invocation. Structural events — restarts,
	// checkpoints, resizes — are never sampled.
	TraceStride uint32

	// sampler draws the gaps between sampled invocations; only the
	// goroutine stepping the actor touches it.
	sampler stats.GapSampler
}

// StepTimed invokes Step, counting every invocation and timing a random
// sample of them. Gaps between sampled invocations are drawn uniformly from
// [1, 2S−1] (mean S = TraceStride) by a per-actor xorshift seeded by ID; the
// first invocation is always sampled. A random gap cannot alias with a
// periodic kernel the way a fixed stride would, so the sampled service-time
// statistics stay unbiased while Service.Count stays exact.
//
// An unsampled invocation costs Step plus one atomic count increment, with
// no clock read. A sampled one reads the clock once per edge, and the same
// captures feed both Service and the trace bus.
func (a *Actor) StepTimed() Status {
	if a.sampler.Skip() {
		st := a.Step()
		a.Service.Untimed()
		return st
	}
	a.sampler.Draw(a.TraceStride, uint64(a.ID))
	start := now()
	if a.Trace == nil {
		st := a.Step()
		a.Service.Record(since(start))
		return st
	}
	a.Trace.Record(a.TraceID, trace.RunStart, start.UnixNano())
	st := a.Step()
	end := now()
	a.Service.Record(end.Sub(start))
	a.Trace.Record(a.TraceID, trace.RunEnd, end.UnixNano())
	return st
}

// now and since are the clock StepTimed reads on sampled invocations
// (since reads only the monotonic clock, about half the cost of now);
// tests swap both for a synthetic clock.
var now, since = time.Now, time.Since

// LinkInfo is the engine's view of one stream (queue) between two actors.
type LinkInfo struct {
	// ID is the link's index within the engine (dense, 0-based).
	ID int
	// Name is a human-readable "src.port -> dst.port" label.
	Name string
	// Queue is the untyped view of the stream's FIFO.
	Queue ringbuffer.Queue
	// SrcActor and DstActor are actor IDs (or -1 for external endpoints,
	// e.g. a TCP peer).
	SrcActor, DstActor int
	// Occupancy accumulates monitor samples of queue length.
	Occupancy stats.Occupancy
	// ResizeEnabled gates the monitor's dynamic resize rules for this link.
	ResizeEnabled bool
	// MaxCap bounds monitor-driven growth (0 = unbounded).
	MaxCap int
	// LatencyClass is the mapper's estimate of the cost of crossing this
	// link (e.g. same-core, cross-socket, TCP); informational.
	LatencyClass string
	// Batch publishes the adaptive batcher's chosen transfer size for this
	// link; adapters and bridges consult it on their hot path. Nil when the
	// engine predates allocation (tests building LinkInfo by hand).
	Batch *BatchControl
	// LatencyPriority marks a link whose consumers need elements as soon as
	// they exist: the batcher bypasses it (batch pinned at 1).
	LatencyPriority bool
	// BestEffort marks a link running the drop/latest-wins overflow policy
	// (AsBestEffort): the monitor's drop watcher only polls links that have
	// it set.
	BestEffort bool
}

func (l *LinkInfo) String() string {
	return fmt.Sprintf("link %d [%s] cap=%d len=%d", l.ID, l.Name, l.Queue.Cap(), l.Queue.Len())
}

// BatchControl publishes the transfer batch size chosen for one link. The
// monitor's adaptive batcher writes it; split/merge adapters, bridges and
// batch-aware kernels read it lock-free on their hot paths. A value of 0
// means "no decision yet": readers fall back to their static default. Pinned
// controls (latency-priority links) are never changed by the monitor.
type BatchControl struct {
	n      atomic.Int32
	pinned atomic.Bool
}

// Get returns the current batch size (0 = no decision; nil-safe).
func (b *BatchControl) Get() int {
	if b == nil {
		return 0
	}
	return int(b.n.Load())
}

// Set publishes a new batch size (values < 1 are clamped to 1).
func (b *BatchControl) Set(n int) {
	if n < 1 {
		n = 1
	}
	b.n.Store(int32(n))
}

// Hint publishes n as the link's initial batch size only if no decision
// exists yet (Get() == 0) and the control is not pinned, reporting whether
// it applied. Nil-safe. Placement-time advisors (the work-stealing
// scheduler's cross-shard hints) use it so they seed a starting point
// without overriding the adaptive batcher or a user pin.
func (b *BatchControl) Hint(n int) bool {
	if b == nil || b.pinned.Load() {
		return false
	}
	if n < 1 {
		n = 1
	}
	return b.n.CompareAndSwap(0, int32(n))
}

// Pin fixes the batch size permanently; the monitor skips pinned controls.
func (b *BatchControl) Pin(n int) {
	b.Set(n)
	b.pinned.Store(true)
}

// Pinned reports whether the control is exempt from adaptive changes.
func (b *BatchControl) Pinned() bool { return b != nil && b.pinned.Load() }

// Scaler is a control handle for a replicated kernel group: the monitor
// widens or narrows the number of active replicas through it (the paper's
// automatic parallelization, §4.1).
type Scaler interface {
	// Name identifies the group in reports.
	Name() string
	// Active returns the number of currently active replicas.
	Active() int
	// Max returns the replica ceiling chosen at graph construction.
	Max() int
	// SetActive requests n active replicas (clamped to [1, Max]).
	SetActive(n int)
	// InputLink returns the engine link feeding the group's distributor,
	// whose pressure drives scale-up decisions; may be nil for sources.
	InputLink() *LinkInfo
	// OutputLink returns the engine link draining the group's collector;
	// may be nil for sinks.
	OutputLink() *LinkInfo
}
