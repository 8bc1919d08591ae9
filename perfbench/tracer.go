package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanStride samples one element (or invocation) in spanStride at every
// traced boundary, keeping a traced run's span set near a hundred thousand
// entries.
const spanStride = 256

// span is one timed call across a layer boundary. Spans of one element or
// request share a trace id; parent indexes the enclosing span in the same
// lane (-1 for a root).
type span struct {
	name       string
	trace      uint64
	parent     int32
	start, end int64 // ns since the tracer's base
}

// lane is one goroutine's span buffer; recording takes no lock.
type lane struct {
	name  string
	base  time.Time
	spans []span
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	stride uint64
	base   time.Time
	mu     sync.Mutex
	lanes  []*lane
}

func newTracer(stride uint64) *tracer { return &tracer{stride: stride, base: time.Now()} }

// lane registers a buffer for one recording goroutine. A nil tracer gives a
// nil lane, and every method of a nil lane is a no-op, so untraced code
// paths pay one nil check.
func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	l := &lane{name: name, base: t.base}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

func (t *tracer) sampled(i uint64) bool { return t != nil && i%t.stride == 0 }

func (l *lane) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.base))
}

// open starts a span and returns its index for close.
func (l *lane) open(name string, trace uint64, parent int32) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, trace: trace, parent: parent, start: l.now()})
	return int32(len(l.spans) - 1)
}

func (l *lane) close(i int32) {
	if l != nil {
		l.spans[i].end = l.now()
	}
}

// add records a finished span with explicit bounds.
func (l *lane) add(name string, trace uint64, parent int32, start, end int64) int32 {
	l.spans = append(l.spans, span{name: name, trace: trace, parent: parent, start: start, end: end})
	return int32(len(l.spans) - 1)
}

// durations returns the durations (ns) of every span with the given name.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	t.each(func(_ *lane, s span, _ int64) {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	})
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children.
func (l *lane) selfTimes() []int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int32][]iv)
	for _, s := range l.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
		}
	}
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		covered := int64(0)
		ivs := kids[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].a < ivs[b].a })
		cur := iv{-1, -1}
		for _, c := range ivs {
			if c.a < s.start {
				c.a = s.start
			}
			if c.b > s.end {
				c.b = s.end
			}
			if c.b <= c.a {
				continue
			}
			if c.a > cur.b {
				covered += cur.b - cur.a
				cur = c
			} else if c.b > cur.b {
				cur.b = c.b
			}
		}
		covered += cur.b - cur.a
		self[i] = (s.end - s.start) - covered
	}
	return self
}

// each visits every span with its self time.
func (t *tracer) each(fn func(l *lane, s span, self int64)) {
	t.mu.Lock()
	lanes := append([]*lane(nil), t.lanes...)
	t.mu.Unlock()
	for _, l := range lanes {
		self := l.selfTimes()
		for i, s := range l.spans {
			fn(l, s, self[i])
		}
	}
}

// writeJSONL writes every span, one JSON array a line:
// [lane, name, trace, parent, start_ns, end_ns, self_ns].
func (t *tracer) writeJSONL(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	var encErr error
	t.each(func(l *lane, s span, self int64) {
		if encErr != nil {
			return
		}
		encErr = enc.Encode([]any{l.name, s.name, s.trace, s.parent, s.start, s.end, self})
		n++
	})
	if encErr != nil {
		f.Close()
		return n, encErr
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
