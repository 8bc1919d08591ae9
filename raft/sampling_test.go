package raft

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countedGen emits n int64s and counts its own invocations, so a test can
// compare the runtime's sampled-timing run counts with the truth.
type countedGen struct {
	KernelBase
	next, n int64
	calls   atomic.Uint64
	// hold, when set, idles the generator halfway (returning Proceed
	// without pushing) for as long as it reports true.
	hold func() bool
}

func newCountedGen(n int64) *countedGen {
	k := &countedGen{n: n}
	AddOutput[int64](k, "out")
	return k
}

func (g *countedGen) Run() Status {
	g.calls.Add(1)
	if g.next >= g.n {
		return Stop
	}
	if g.hold != nil && g.next == g.n/2 && g.hold() {
		return Proceed
	}
	if err := Push(g.Out("out"), g.next); err != nil {
		return Stop
	}
	g.next++
	return Proceed
}

// countedSink drains int64s and counts its own invocations.
type countedSink struct {
	KernelBase
	calls atomic.Uint64
	sum   int64
}

func newCountedSink() *countedSink {
	k := &countedSink{}
	AddInput[int64](k, "in")
	return k
}

func (c *countedSink) Run() Status {
	c.calls.Add(1)
	v, err := Pop[int64](c.In("in"))
	if err != nil {
		return Stop
	}
	c.sum += v
	return Proceed
}

// TestReportRunsExactUnderSampling checks that sampled timing leaves run
// counts exact under all three schedulers: every invocation is counted even
// though only about one in DefaultTraceStride reads the clock.
func TestReportRunsExactUnderSampling(t *testing.T) {
	scheds := map[string][]Option{
		"goroutine": nil,
		"pool":      {WithPoolScheduler(2)},
		"worksteal": {WithWorkStealing(2)},
	}
	for name, opts := range scheds {
		t.Run(name, func(t *testing.T) {
			const n = 20_000
			m := NewMap()
			gen, sink := newCountedGen(n), newCountedSink()
			if _, err := m.Link(gen, sink); err != nil {
				t.Fatal(err)
			}
			rep, err := m.Exe(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(n) * (n - 1) / 2; sink.sum != want {
				t.Fatalf("sum = %d, want %d", sink.sum, want)
			}
			for i, calls := range []uint64{gen.calls.Load(), sink.calls.Load()} {
				k := rep.Kernels[i]
				if k.Runs != calls {
					t.Errorf("%s: Runs = %d, want %d", k.Name, k.Runs, calls)
				}
				if k.MeanSvcNanos <= 0 || k.BusyNanos == 0 {
					t.Errorf("%s: mean %v busy %d, want non-zero", k.Name, k.MeanSvcNanos, k.BusyNanos)
				}
			}
		})
	}
}

// TestShortKernelReportsMean runs kernels invoked only once or twice: the
// first invocation is always timed, so their service time is never blank.
func TestShortKernelReportsMean(t *testing.T) {
	m := NewMap()
	gen, sink := newCountedGen(1), newCountedSink()
	if _, err := m.Link(gen, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe()
	if err != nil {
		t.Fatal(err)
	}
	for i, calls := range []uint64{gen.calls.Load(), sink.calls.Load()} {
		k := rep.Kernels[i]
		if calls > 2 || k.Runs != calls {
			t.Fatalf("%s: Runs = %d, calls = %d", k.Name, k.Runs, calls)
		}
		if k.MeanSvcNanos <= 0 {
			t.Errorf("%s ran %d times but reports mean %v", k.Name, calls, k.MeanSvcNanos)
		}
	}
}

// TestSampledStatsReadConcurrently reads run counts, busy time and the
// service histogram through LiveStats and /metrics while a kernel steps;
// run under -race it proves the sampled counters are safe to read mid-run.
// The generator idles (still stepping) until several snapshots and a
// scrape have landed, so the reads overlap the stepping.
func TestSampledStatsReadConcurrently(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	m := NewMap()
	gen, sink := newCountedGen(50_000), newCountedSink()
	var snaps, scrapes atomic.Int64
	var liveRuns atomic.Uint64
	gen.hold = func() bool { return snaps.Load() < 5 || scrapes.Load() < 1 }
	if _, err := m.Link(gen, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithMetricsListener(ln), WithObserver(time.Millisecond, func(ls LiveStats) {
		var runs uint64
		for _, k := range ls.Kernels {
			runs += k.Runs
		}
		liveRuns.Store(runs)
		if body, err := pollMetricsOnce(addr); err == nil && strings.Contains(body, "raft_kernel_busy_ns_total{") {
			scrapes.Add(1)
		}
		snaps.Add(1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, k := range rep.Kernels {
		total += k.Runs
	}
	if live := liveRuns.Load(); live == 0 || live > total {
		t.Fatalf("live runs %d, final runs %d", live, total)
	}
	if rep.Kernels[0].Runs != gen.calls.Load() {
		t.Fatalf("generator Runs = %d, want %d", rep.Kernels[0].Runs, gen.calls.Load())
	}
}

// spinKernel forwards int64s after busy-spinning a fixed service time, so
// its true service rate is known.
type spinKernel struct {
	KernelBase
	svc time.Duration
}

func newSpin(svc time.Duration) *spinKernel {
	k := &spinKernel{svc: svc}
	AddInput[int64](k, "in")
	AddOutput[int64](k, "out")
	return k
}

func (s *spinKernel) Run() Status {
	v, err := Pop[int64](s.In("in"))
	if err != nil {
		return Stop
	}
	for start := time.Now(); time.Since(start) < s.svc; {
	}
	if err := Push(s.Out("out"), v); err != nil {
		return Stop
	}
	return Proceed
}

// TestAdvisorRateUnderSampling checks that the advisor's predicted
// throughput for a known-rate bottleneck is the same whether every
// invocation is timed (stride 1) or only a sample (the default stride).
func TestAdvisorRateUnderSampling(t *testing.T) {
	const svc = 100 * time.Microsecond
	want := float64(time.Second / svc)
	rate := func(opts ...Option) float64 {
		m := NewMap()
		spin := newSpin(svc)
		if _, err := m.Link(newGen(5000), spin); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Link(spin, newCollect()); err != nil {
			t.Fatal(err)
		}
		rep, err := m.Exe(opts...)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := Analyze(m, rep)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(adv.Bottleneck, "spinKernel") {
			t.Fatalf("bottleneck = %q, want the spinning kernel:\n%s", adv.Bottleneck, adv)
		}
		return adv.MaxSourceRate
	}
	every, sampled := rate(WithTraceStride(1)), rate()
	t.Logf("stride 1 %.0f/s sampled %.0f/s", every, sampled)
	for name, got := range map[string]float64{"stride 1": every, "sampled": sampled} {
		// The spin bounds the rate from above; port work on top of it
		// (several µs per element under -race) pulls it below.
		if got < want*0.5 || got > want*1.25 {
			t.Errorf("%s: max source rate %.0f/s, want %.0f/s (-50%%/+25%%)", name, got, want)
		}
	}
	if d := sampled/every - 1; d < -0.25 || d > 0.25 {
		t.Errorf("sampled rate %.0f/s differs from stride-1 rate %.0f/s by %.0f%%", sampled, every, 100*d)
	}
}
