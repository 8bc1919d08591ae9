package stats

// GapSampler picks a random sample of a stream of events, for
// instrumentation too costly to take on every event. Gaps between sampled
// events are uniform in [1, 2S−1] for a mean stride S, drawn by a
// xorshift generator; a random gap cannot alias with a periodic event
// stream the way a fixed stride would, so statistics over the sample stay
// unbiased. The first event is always sampled. The zero value is ready to
// use; a GapSampler belongs to the one goroutine that feeds it events.
type GapSampler struct {
	skip uint32 // unsampled events left before the next sampled one
	rng  uint64 // xorshift state; 0 until the first draw seeds it
}

// Skip reports whether the current event falls inside a gap, and consumes
// it if so. When Skip returns false the event is sampled and the caller
// must call Draw to start the next gap.
func (g *GapSampler) Skip() bool {
	if g.skip > 0 {
		g.skip--
		return true
	}
	return false
}

// Draw starts the gap after a sampled event and returns its length,
// uniform in [1, 2S−1] for stride S (always 1 when S <= 1). The length is
// the sampled event's weight: it stands for itself and the gap−1 events
// Skip passes over next. seed initialises the generator on the first draw
// (splitmix64 of seed, so distinct seeds give distinct, non-zero states).
func (g *GapSampler) Draw(stride uint32, seed uint64) uint32 {
	if stride <= 1 {
		return 1
	}
	x := g.rng
	if x == 0 {
		x = seed + 0x9E3779B97F4A7C15
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		x ^= x >> 31
		if x == 0 {
			x = 1
		}
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	g.rng = x
	gap := 1 + uint32(x%(2*uint64(stride)-1))
	g.skip = gap - 1
	return gap
}
