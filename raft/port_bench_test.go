package raft

import "testing"

// boundPort returns an output port bound, without Exe, to a fresh queue of
// the given kind ("mutex" or "spsc") with room for capacity elements.
func boundPort[T any](kind string, capacity int) *Port {
	p := newPort[T]("0", Out)
	q, typed := p.mk(capacity, 0, kind == "spsc")
	p.bind(q, typed, &asyncCell{})
	return p
}

// BenchmarkPortPushPop prices the port-accessor layer: one goroutine pushes
// then pops one element through the typed accessors, so each op is the
// accessor's queue resolution plus one uncontended ring push and pop.
// Compare with BenchmarkRingPushPop / BenchmarkSPSCPushPop in
// internal/ringbuffer, which call the rings directly across goroutines.
func BenchmarkPortPushPop(b *testing.B) {
	for _, kind := range []string{"mutex", "spsc"} {
		b.Run(kind, func(b *testing.B) {
			p := boundPort[int64](kind, 1024)
			for i := 0; i < b.N; i++ {
				if err := Push(p, int64(i)); err != nil {
					b.Fatal(err)
				}
				if _, err := Pop[int64](p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
