package core

import (
	"testing"
	"time"

	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
)

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		Proceed:    "proceed",
		Stop:       "stop",
		Stall:      "stall",
		Status(99): "invalid",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

func TestActorStepTimed(t *testing.T) {
	a := &Actor{
		Name: "worker",
		Step: func() Status {
			time.Sleep(100 * time.Microsecond)
			return Proceed
		},
	}
	if st := a.StepTimed(); st != Proceed {
		t.Fatalf("status = %v", st)
	}
	if a.Service.Count() != 1 {
		t.Fatalf("service count = %d", a.Service.Count())
	}
	if a.Service.MeanNanos() < float64(50*time.Microsecond) {
		t.Fatalf("mean = %v ns, want >= 50µs", a.Service.MeanNanos())
	}
}

func TestLinkInfoString(t *testing.T) {
	r := ringbuffer.NewRing[int](8)
	_ = r.Push(1, ringbuffer.SigNone)
	li := &LinkInfo{ID: 3, Name: "a.out->b.in", Queue: r}
	s := li.String()
	if s == "" {
		t.Fatal("empty string")
	}
	// Must mention capacity and length.
	if want := "cap=8"; !contains(s, want) {
		t.Fatalf("%q missing %q", s, want)
	}
	if want := "len=1"; !contains(s, want) {
		t.Fatalf("%q missing %q", s, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// fakeClock replaces the sampler's clock with a synthetic one that only
// the kernel under test advances, so sampled statistics are deterministic.
func fakeClock(t *testing.T) *int64 {
	t.Helper()
	var ns int64
	prevNow, prevSince := now, since
	now = func() time.Time { return time.Unix(0, ns) }
	since = func(t time.Time) time.Duration { return now().Sub(t) }
	t.Cleanup(func() { now, since = prevNow, prevSince })
	return &ns
}

func TestStepTimedCountsEveryInvocation(t *testing.T) {
	for _, stride := range []uint32{0, 1, 2, 64, 1000} {
		a := &Actor{ID: 3, TraceStride: stride, Step: func() Status { return Proceed }}
		const n = 10_000
		for i := 0; i < n; i++ {
			a.StepTimed()
		}
		if got := a.Service.Count(); got != n {
			t.Fatalf("stride %d: count = %d, want %d", stride, got, n)
		}
		s := a.Service.Hist().Count()
		if s == 0 || s > n {
			t.Fatalf("stride %d: samples = %d", stride, s)
		}
		if stride <= 1 && s != n {
			t.Fatalf("stride %d must time every invocation: samples = %d", stride, s)
		}
		if stride > 1 {
			// Mean gap S: the sample size lands near n/S.
			want := float64(n) / float64(stride)
			if f := float64(s); f < want*0.7 || f > want*1.3+1 {
				t.Fatalf("stride %d: samples = %d, want ≈ %.0f", stride, s, want)
			}
		}
	}
}

func TestStepTimedSamplesFirstInvocation(t *testing.T) {
	for _, runs := range []int{1, 2} {
		a := &Actor{ID: 7, TraceStride: 64, Step: func() Status {
			time.Sleep(10 * time.Microsecond)
			return Stop
		}}
		for i := 0; i < runs; i++ {
			a.StepTimed()
		}
		if a.Service.Count() != uint64(runs) {
			t.Fatalf("count = %d, want %d", a.Service.Count(), runs)
		}
		if a.Service.MeanNanos() <= 0 || a.Service.BusyNanos() == 0 {
			t.Fatalf("%d runs: mean = %v busy = %d, want non-zero", runs, a.Service.MeanNanos(), a.Service.BusyNanos())
		}
	}
}

// TestStepTimedDoesNotAlias drives a kernel whose every 64th invocation is
// 50× slower than the rest at the default stride. A fixed stride of 64
// would sample either only slow or only fast invocations; random gaps must
// keep the mean and the extrapolated busy time within 25% of the truth.
func TestStepTimedDoesNotAlias(t *testing.T) {
	for phase := 0; phase < 64; phase += 21 {
		clock := fakeClock(t)
		const fast, slow = 1_000, 50_000
		i := 0
		a := &Actor{ID: phase, TraceStride: 64, Step: func() Status {
			if i%64 == phase {
				*clock += slow
			} else {
				*clock += fast
			}
			i++
			return Proceed
		}}
		const n = 64 * 2000
		for j := 0; j < n; j++ {
			a.StepTimed()
		}
		trueBusy := float64(*clock)
		trueMean := trueBusy / n
		if got := a.Service.MeanNanos(); got < trueMean*0.75 || got > trueMean*1.25 {
			t.Errorf("phase %d: mean = %.0f ns, want %.0f ±25%%", phase, got, trueMean)
		}
		if got := float64(a.Service.BusyNanos()); got < trueBusy*0.75 || got > trueBusy*1.25 {
			t.Errorf("phase %d: busy = %.0f ns, want %.0f ±25%%", phase, got, trueBusy)
		}
	}
}

func TestStepTimedTracesSampledInvocations(t *testing.T) {
	rec := trace.NewRecorder(1 << 12)
	a := &Actor{ID: 1, TraceID: 1, Trace: rec, TraceStride: 16, Step: func() Status { return Proceed }}
	for i := 0; i < 1600; i++ {
		a.StepTimed()
	}
	var starts, ends uint64
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.RunStart:
			starts++
		case trace.RunEnd:
			ends++
		}
	}
	if starts != ends || starts != a.Service.Hist().Count() {
		t.Fatalf("spans %d/%d, want one pair per timed sample (%d)", starts, ends, a.Service.Hist().Count())
	}
}

// BenchmarkStepTimed prices the per-invocation instrumentation around a
// no-op kernel: sampled at the default stride with and without a trace
// recorder, and timed on every invocation (stride 1).
func BenchmarkStepTimed(b *testing.B) {
	arms := []struct {
		name   string
		stride uint32
		traced bool
	}{
		{"untraced", 64, false}, // 64 = raft.DefaultTraceStride
		{"traced", 64, true},
		{"stride1", 1, false},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			a := &Actor{TraceStride: arm.stride, Step: func() Status { return Proceed }}
			if arm.traced {
				a.Trace = trace.NewRecorder(1 << 16)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.StepTimed()
			}
		})
	}
}
