package raft

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
)

// scrapingObserver polls the metrics endpoint mid-run from the observer
// callback, so the scrape exercises live (still-executing) state.
type scrapingObserver struct {
	addr string
	mu   sync.Mutex
	body string
}

func (s *scrapingObserver) observe(LiveStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.body != "" {
		return
	}
	if b, err := pollMetricsOnce(s.addr); err == nil {
		s.body = b
	}
}

func TestMetricsEndpointDuringRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	scraper := &scrapingObserver{addr: ln.Addr().String()}

	m := NewMap()
	work := newWork()
	sink := newCollect()
	if _, err := m.Link(newGen(200000), work); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(
		WithMetricsListener(ln),
		WithTrace(1<<14),
		WithObserver(1_000_000, scraper.observe), // 1ms
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MetricsAddr == "" {
		t.Fatal("report carries no metrics address")
	}

	scraper.mu.Lock()
	body := scraper.body
	scraper.mu.Unlock()
	if body == "" {
		t.Fatal("no scrape landed during the run")
	}
	for _, want := range []string{
		"raft_link_pushes_total{link=",
		"raft_link_occupancy_bucket{link=",
		"le=\"+Inf\"",
		"raft_link_occupancy_count{link=",
		"raft_kernel_runs_total{kernel=",
		"raft_kernel_service_ns_bucket{kernel=",
		"raft_monitor_ticks_total",
		"raft_trace_dropped_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%.2000s", want, body)
		}
	}

	// Endpoint must be down once Exe returns.
	if _, err := pollMetricsOnce(rep.MetricsAddr); err == nil {
		t.Fatal("metrics endpoint still up after Exe returned")
	}
}

func TestReportChromeTrace(t *testing.T) {
	m := NewMap()
	work := newWork()
	sink := newCollect()
	if _, err := m.Link(newGen(500), work); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(work, sink); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe(WithTrace(4096))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid chrome JSON: %v", err)
	}
	var spans int
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			spans++
		case "M":
			if args, ok := ev["args"].(map[string]any); ok {
				if n, ok := args["name"].(string); ok {
					names[n] = true
				}
			}
		}
	}
	if spans == 0 {
		t.Fatal("no kernel spans in chrome trace")
	}
	for _, want := range []string{"genKernel", "workKernel", "collectKernel"} {
		found := false
		for n := range names {
			if strings.HasPrefix(n, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("kernel track %q missing (have %v)", want, names)
		}
	}
}

func TestChromeTraceRequiresTrace(t *testing.T) {
	_, rep := runSumApp(t, 10)
	if err := rep.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("expected error without WithTrace")
	}
}

// TestReportOccupancyHistogram checks the Report's per-link occupancy
// histogram against the sampled contract on both ring kinds: element-wise
// pushes record a random sample, each record weighted by its gap (at most
// 2*64-1 pushes), so a link's weights total its push count within one gap;
// a PushN records exactly one op.
func TestReportOccupancyHistogram(t *testing.T) {
	const maxGap = 2*64 - 1
	for _, opts := range [][]Option{nil, {WithLockFreeQueues()}} {
		_, rep := runSumApp(t, 5000, opts...)
		for _, l := range rep.Links {
			var w uint64
			for _, n := range l.OccHist {
				w += n
			}
			if l.Pushes != 5000 {
				t.Fatalf("link %s (%s): pushes = %d, want 5000", l.Name, l.Ring, l.Pushes)
			}
			if w < l.Pushes || w > l.Pushes+maxGap-1 {
				t.Fatalf("link %s (%s): occupancy weights total %d, want within one gap of %d pushes",
					l.Name, l.Ring, w, l.Pushes)
			}
			if l.OccP99 == 0 {
				t.Fatalf("link %s (%s): pushes=%d but occ p99 = 0", l.Name, l.Ring, l.Pushes)
			}
		}
	}
	m := NewMap()
	src := NewLambda[int64](0, 1, func(k *LambdaKernel) Status {
		_ = PushN(k.Out("0"), make([]int64, 12))
		return Stop
	})
	if _, err := m.Link(src, newCollect()); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Exe()
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Links[0].OccHist
	var total uint64
	for _, n := range h {
		total += n
	}
	if h[3] != 1 || total != 1 {
		t.Fatalf("PushN of 12 recorded %v, want one op in bucket 3", h[:5])
	}
}
