package main

import (
	"time"

	"raftlib/raft"
)

// The benchmark's own kernels move int64 elements one at a time with
// raft.Pop and raft.Push. Their optional trace lanes time those calls on
// one invocation in spanStride; untraced kernels pay one nil check.

// source emits its input one element per Run. With a ladder it is paced
// instead: each Run pushes the next group's linesPerPost elements of the
// seed's stream once the group is due. Until then it sleeps either to the
// due time or, with a tick, one tick at a time (see pacingTick).
type source struct {
	raft.KernelBase
	out *raft.Port

	vals []int64
	i    int

	// Paced mode.
	tick time.Duration
	seed uint64
	lad  *ladder
	clk  *clock
	lr   *ladderResult

	tr       *tracer
	ln       *lane
	pushName string
}

func newSource(vals []int64) *source {
	s := &source{vals: vals}
	s.SetName("source")
	s.out = raft.AddOutput[int64](s, "out")
	return s
}

func newPacedSource(seed uint64, lad *ladder, clk *clock, lr *ladderResult, tick time.Duration) *source {
	s := newSource(nil)
	s.seed, s.lad, s.clk, s.lr, s.tick = seed, lad, clk, lr, tick
	return s
}

func (s *source) traced(tr *tracer, lane, pushName string) {
	s.tr, s.ln, s.pushName = tr, tr.lane(lane), pushName
}

func (s *source) push(i uint64, v int64) error {
	if s.tr.sampled(i) {
		sp := s.ln.open(s.pushName, i, -1)
		err := raft.Push(s.out, v)
		s.ln.close(sp)
		return err
	}
	return raft.Push(s.out, v)
}

func (s *source) Run() raft.Status {
	if s.lad != nil {
		return s.runPaced()
	}
	if s.i == len(s.vals) {
		return raft.Stop
	}
	if err := s.push(uint64(s.i), s.vals[s.i]); err != nil {
		return raft.Stop
	}
	s.i++
	return raft.Proceed
}

func (s *source) runPaced() raft.Status {
	g := s.i
	if g == s.lad.total() {
		return raft.Stop
	}
	if g == 0 {
		s.clk.start(time.Now())
	}
	due := s.clk.dueAt(s.lad, g)
	if d := time.Until(due); d > 0 {
		if s.tick > 0 {
			d = s.tick
		}
		time.Sleep(d)
		return raft.Proceed
	}
	gr := &s.lr.gen[s.lad.rungOf(g)]
	gr.lag.record(int64(time.Since(due)))
	gr.sentAt(due)
	for k := 0; k < linesPerPost; k++ {
		seq := uint64(g*linesPerPost + k)
		if err := s.push(seq, elemValue(s.seed, seq)); err != nil {
			gr.failed++
			return raft.Stop
		}
	}
	gr.doneAt(s.lad, g, due, time.Now())
	s.i++
	return raft.Proceed
}

// pacingTick is the chain's release tick: while no group is due its paced
// source sleeps one tick, so groups are released on a fixed 1 ms tick.
// Sleeping exactly until each due time ends on Go's millisecond timer
// rounding or on a prompt wake depending on what else the host is doing,
// and the share of prompt wakes moved the chain's low-rung p50 by a third
// from run to run; with the tick every group's release delay is spread
// evenly over the tick. The bridge sleeps to the due time instead: ticked
// bursts of up to four groups overrun the Sender's 64-element input, and
// its high-rung p90 then moved between 1 and 4 ms from run to run.
const pacingTick = time.Millisecond

// ladderSum is the sum of every element a paced source emits.
func ladderSum(seed uint64, lad *ladder) (int64, int64) {
	n := lad.total() * linesPerPost
	var sum int64
	for i := 0; i < n; i++ {
		sum += elemValue(seed, uint64(i))
	}
	return sum, int64(n)
}

// pass forwards elements unchanged. Traced, it records a run span per
// sampled invocation with pop and push children, and the gap between the
// previous Run's return and the sampled Run's entry.
type pass struct {
	raft.KernelBase
	in, out *raft.Port

	n        uint64
	tr       *tracer
	ln       *lane
	popName  string
	pushName string
	lastExit int64 // exit time of invocation n-1, when it was recorded
}

func newPass(name string) *pass {
	p := &pass{}
	p.SetName(name)
	p.in = raft.AddInput[int64](p, "in")
	p.out = raft.AddOutput[int64](p, "out")
	return p
}

func (p *pass) traced(tr *tracer, popName, pushName string) {
	p.tr, p.ln, p.popName, p.pushName = tr, tr.lane(p.Name()), popName, pushName
}

func (p *pass) Run() raft.Status {
	n := p.n
	p.n++
	if p.tr.sampled(n) {
		return p.runTraced(n)
	}
	v, err := raft.Pop[int64](p.in)
	if err != nil {
		return raft.Stop
	}
	if err := raft.Push(p.out, v); err != nil {
		return raft.Stop
	}
	if p.tr.sampled(n + 1) {
		p.lastExit = p.ln.now()
	}
	return raft.Proceed
}

func (p *pass) runTraced(n uint64) raft.Status {
	entry := p.ln.now()
	if p.lastExit > 0 {
		p.ln.add("core.gap", n, -1, p.lastExit, entry)
		p.lastExit = 0
	}
	run := p.ln.add("kernel.run", n, -1, entry, 0)
	sp := p.ln.open(p.popName, n, run)
	v, err := raft.Pop[int64](p.in)
	p.ln.close(sp)
	if err != nil {
		p.ln.close(run)
		return raft.Stop
	}
	sp = p.ln.open(p.pushName, n, run)
	err = raft.Push(p.out, v)
	p.ln.close(sp)
	p.ln.close(run)
	if err != nil {
		return raft.Stop
	}
	return raft.Proceed
}

// sink sums what arrives and stamps the first and last arrival. With a
// ladder it also records each element's latency from its group's due time.
type sink struct {
	raft.KernelBase
	in *raft.Port

	count, sum  int64
	expect      int64 // elements due; the last one is stamped
	first, last time.Time

	lad *ladder
	clk *clock
	lr  *ladderResult

	tr      *tracer
	ln      *lane
	popName string
}

func newSink(expect int64) *sink {
	s := &sink{expect: expect}
	s.SetName("sink")
	s.in = raft.AddInput[int64](s, "in")
	return s
}

func (s *sink) traced(tr *tracer, lane, popName string) {
	s.tr, s.ln, s.popName = tr, tr.lane(lane), popName
}

func (s *sink) Run() raft.Status {
	var v int64
	var err error
	if s.tr.sampled(uint64(s.count)) {
		sp := s.ln.open(s.popName, uint64(s.count), -1)
		v, err = raft.Pop[int64](s.in)
		s.ln.close(sp)
	} else {
		v, err = raft.Pop[int64](s.in)
	}
	if err != nil {
		return raft.Stop
	}
	if s.count == 0 || s.count+1 == s.expect || s.lad != nil {
		now := time.Now()
		if s.count == 0 {
			s.first = now
		}
		s.last = now
		if s.lad != nil {
			g := int(s.count / linesPerPost)
			s.lr.sink[s.lad.rungOf(g)].record(s.lad, g, now.Sub(s.clk.dueAt(s.lad, g)))
		}
	}
	s.count++
	s.sum += v
	return raft.Proceed
}
