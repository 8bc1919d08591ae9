package main

import (
	"fmt"
	"time"

	"raftlib/internal/ringbuffer"
	"raftlib/internal/trace"
	"raftlib/raft"
)

// Isolated probes: each times one layer's exported functions directly,
// outside any workload, so a change to that layer shows here first.

// ringQueue is the part of both ring kinds the probes call.
type ringQueue interface {
	Push(v int64, sig ringbuffer.Signal) error
	Pop() (int64, ringbuffer.Signal, error)
	PushN(vs []int64, sigs []ringbuffer.Signal) error
	PopN(dst []int64, sigs []ringbuffer.Signal) (int, error)
	Close()
}

var ringKinds = []struct {
	name string
	make func() ringQueue
}{
	{"mutex", func() ringQueue { return ringbuffer.NewRing[int64](64) }},
	{"spsc", func() ringQueue { return ringbuffer.NewSPSC[int64](64) }},
}

// best returns the fastest of reps timings of fn, in ns per op.
func best(reps int, ops int, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t))/float64(ops))
	}
	return quantile(xs, 0), nil
}

func ringProbes(res *result) error {
	const n = 1 << 20
	for _, k := range ringKinds {
		q := k.make()
		ns, err := best(5, n, func() error {
			for i := 0; i < n; i++ {
				if err := q.Push(int64(i), ringbuffer.SigNone); err != nil {
					return err
				}
				if _, _, err := q.Pop(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.set("ringbuffer.pushpop_ns."+k.name, "ns", ns)

		vs, dst := make([]int64, 64), make([]int64, 64)
		ns, err = best(5, n, func() error {
			for i := 0; i < n/64; i++ {
				if err := q.PushN(vs, nil); err != nil {
					return err
				}
				for got := 0; got < 64; {
					m, err := q.PopN(dst[got:], nil)
					if err != nil {
						return err
					}
					got += m
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		res.set("ringbuffer.pushpop_ns."+k.name+".batch64", "ns", ns)

		ns, err = best(3, n/4, func() error { return handoff(k.make(), n/4) })
		if err != nil {
			return err
		}
		res.set("ringbuffer.handoff_ns."+k.name, "ns", ns)
	}
	return nil
}

// handoff pushes n elements from one goroutine and pops them on another
// through a capacity-64 queue, checking the sum.
func handoff(q ringQueue, n int) error {
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := q.Push(int64(i), ringbuffer.SigNone); err != nil {
				errc <- err
				return
			}
		}
		q.Close()
		errc <- nil
	}()
	var sum int64
	for {
		v, _, err := q.Pop()
		if err != nil {
			break
		}
		sum += v
	}
	if err := <-errc; err != nil {
		return err
	}
	if want := int64(n) * int64(n-1) / 2; sum != want {
		return fmt.Errorf("handoff sum %d, want %d", sum, want)
	}
	return nil
}

// wakeSource pushes the time just before each Push, paced so the consumer
// is parked between elements.
type wakeSource struct {
	raft.KernelBase
	out  *raft.Port
	n    int
	pace time.Duration
	base time.Time
}

func (s *wakeSource) Run() raft.Status {
	if s.n == 0 {
		return raft.Stop
	}
	s.n--
	time.Sleep(s.pace)
	if err := raft.Push(s.out, int64(time.Since(s.base))); err != nil {
		return raft.Stop
	}
	return raft.Proceed
}

type wakeSink struct {
	raft.KernelBase
	in   *raft.Port
	base time.Time
	lat  []int64
}

func (s *wakeSink) Run() raft.Status {
	v, err := raft.Pop[int64](s.in)
	if err != nil {
		return raft.Stop
	}
	s.lat = append(s.lat, int64(time.Since(s.base))-v)
	return raft.Proceed
}

// wakeProbe measures stamp-before-Push to Pop-return latency for an idle
// consumer under the goroutine scheduler (mutex and SPSC links) and the
// work-stealing scheduler.
func wakeProbe(res *result) error {
	const n = 400
	modes := []struct {
		name string
		link []raft.LinkOption
		opts []raft.Option
	}{
		{"mutex", nil, nil},
		{"spsc", []raft.LinkOption{raft.AsLockFree()}, nil},
		{"worksteal", nil, []raft.Option{raft.WithWorkStealing(2)}},
	}
	for _, md := range modes {
		base := time.Now()
		src := &wakeSource{n: n, pace: 1500 * time.Microsecond, base: base}
		src.out = raft.AddOutput[int64](src, "out")
		snk := &wakeSink{base: base}
		snk.in = raft.AddInput[int64](snk, "in")
		m := raft.NewMap()
		if _, err := m.Link(src, snk, md.link...); err != nil {
			return err
		}
		if _, err := m.Exe(md.opts...); err != nil {
			return err
		}
		res.check(len(snk.lat) == n, 1, "wake probe %s: %d of %d elements arrived", md.name, len(snk.lat), n)
		res.set("scheduler.wake_us."+md.name+".p50", "us", nsQuantile(snk.lat, 0.5)/1e3)
		res.set("scheduler.wake_us."+md.name+".p99", "us", nsQuantile(snk.lat, 0.99)/1e3)
	}
	return nil
}

// markerProbe prices one latency marker's Stamp and Retire.
func markerProbe(res *result) error {
	const n = 200_000
	d := trace.NewMarkerDomain(1024)
	ns, err := best(3, n, func() error {
		for i := 0; i < n; i++ {
			now := time.Now().UnixNano()
			d.Retire(d.Stamp("probe", "probe", now), now)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("trace.marker_ns", "ns", ns)
	return nil
}

func runProbes(cfg runConfig, tr *tracer, res *result) error {
	if err := ringProbes(res); err != nil {
		return fmt.Errorf("ring probe: %w", err)
	}
	if err := wakeProbe(res); err != nil {
		return fmt.Errorf("wake probe: %w", err)
	}
	return markerProbe(res)
}

// tracingOverhead runs the selected workload's traced section and the same
// section untraced, alternating, and returns traced CPU per operation over
// untraced CPU per operation, minus one.
func tracingOverhead(name string, cfg runConfig, res *result) (float64, error) {
	section := func(tr *tracer) (int64, error) {
		switch name {
		case "chain":
			_, _, err := chainRep(cfg, 1, tr, res)
			return chainElems, err
		case "bridge":
			_, _, err := bridgeRep(cfg, 1, tr, res)
			return bridgeElems, err
		case "gateway":
			o, err := gatewayLadder(cfg, groupLadder(cfg.budget*2/100), tr, res)
			return o.posts, err
		default:
			in := makeTSInputs(cfg.seed)
			ln := tr.lane("textsearch")
			for i := 0; i < 10; i++ {
				sp := ln.open("textsearch.pass", uint64(i), -1)
				_, err := searchPass(in, res)
				ln.close(sp)
				if err != nil {
					return 0, err
				}
			}
			return 10, nil
		}
	}
	var plain, traced []float64
	var gcs uint32
	var plainOps int64
	for i := 0; i < 2; i++ {
		for _, tr := range []*tracer{nil, newTracer(spanStride)} {
			mm := markMem()
			c0 := cpuNow()
			ops, err := section(tr)
			if err != nil {
				return 0, err
			}
			cpu := float64(cpuNow()-c0) / float64(ops)
			if tr == nil {
				plain = append(plain, cpu)
				_, g := mm.since()
				gcs += g
				plainOps += ops
			} else {
				traced = append(traced, cpu)
			}
		}
	}
	res.set("runtime.gc_cycles_per_op", "1/op", float64(gcs)/float64(plainOps))
	return median(traced)/median(plain) - 1, nil
}
