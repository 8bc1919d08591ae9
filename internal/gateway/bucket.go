package gateway

import (
	"sync"
	"time"
)

// bucket is a token bucket over fractional element counts. rate <= 0
// disables limiting entirely. The clock arrives as an argument so tests
// drive it deterministically.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (elements) per second; <=0 = unlimited
	burst  float64 // bucket depth
	tokens float64
	last   time.Time
}

func (b *bucket) init(rate, burst float64) {
	if burst <= 0 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	b.rate = rate
	b.burst = burst
	b.tokens = burst
}

// take withdraws n tokens if available, reporting on refusal how long
// until the deficit refills and how many tokens there were. A request
// larger than the whole bucket can never succeed; it is refused with the
// time to fill from empty, so the caller surfaces a finite Retry-After
// instead of blocking forever.
func (b *bucket) take(n float64, now time.Time) (ok bool, wait time.Duration, avail float64) {
	if b.rate <= 0 {
		return true, 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refill(now)
	if b.tokens >= n {
		b.tokens -= n
		return true, 0, 0
	}
	short := n - b.tokens
	if n > b.burst {
		short = b.burst
	}
	return false, time.Duration(short / b.rate * float64(time.Second)), b.tokens
}

// refund returns tokens withdrawn for a batch that was not admitted
// (model shed, stream closed), so downstream rejections don't consume
// the tenant's provisioned budget.
func (b *bucket) refund(n float64) {
	if b.rate <= 0 {
		return
	}
	b.mu.Lock()
	b.tokens += n
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

func (b *bucket) refill(now time.Time) {
	if b.last.IsZero() {
		b.last = now
		return
	}
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.last = now
	b.tokens += dt * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}
