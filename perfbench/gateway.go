package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"raftlib/internal/gateway"
	"raftlib/raft"
)

// gateway: open-loop HTTP ingest on two keep-alive connections, one tenant
// each, into Source -> parse -> sink under the default admission
// thresholds and link capacity. Reads run beside the writes: LiveStats
// every 100 ms in-process and GET /metrics every 250 ms on the same two
// connections. The oracle is exactly-once: the lines of 202-accepted posts
// must arrive at the sink, no more and no fewer, with the same sum.

const (
	gwSource     = "ingest"
	gwConns      = 2
	scrapeEvery  = 250 * time.Millisecond
	observeEvery = 100 * time.Millisecond
)

// record is one parsed line.
type record struct {
	seq   uint64
	due   int64 // ns after the ladder start
	val   int64
	popNs int64 // parse's Pop time on the tracer clock, for sampled lines
}

// parseKernel turns "<seq> <due> <value>" lines into records.
type parseKernel struct {
	raft.KernelBase
	in, out *raft.Port
	tr      *tracer
	ln      *lane
	bad     int64
}

func newParse() *parseKernel {
	p := &parseKernel{}
	p.SetName("parse")
	p.in = raft.AddInput[[]byte](p, "in")
	p.out = raft.AddOutput[record](p, "out")
	return p
}

func (p *parseKernel) Run() raft.Status {
	line, err := raft.Pop[[]byte](p.in)
	if err != nil {
		return raft.Stop
	}
	var popNs int64
	if p.ln != nil {
		popNs = p.ln.now()
	}
	f := bytes.Fields(line)
	if len(f) != 3 {
		p.bad++
		return raft.Proceed
	}
	r := record{seq: uint64(atoi(f[0])), due: atoi(f[1]), val: atoi(f[2])}
	if p.tr.sampled(r.seq) {
		r.popNs = popNs
	}
	if err := raft.Push(p.out, r); err != nil {
		return raft.Stop
	}
	return raft.Proceed
}

func atoi(b []byte) int64 {
	var n int64
	for _, c := range b {
		n = n*10 + int64(c-'0')
	}
	return n
}

// recordSink counts and sums arriving records and, with a ladder, records
// each line's latency from its stamped due time.
type recordSink struct {
	raft.KernelBase
	in         *raft.Port
	count, sum int64
	arrived    atomic.Int64 // count, readable while the graph runs
	first      time.Time
	lad        *ladder
	clk        *clock
	lr         *ladderResult
	ln         *lane
}

func newRecordSink() *recordSink {
	s := &recordSink{}
	s.SetName("sink")
	s.in = raft.AddInput[record](s, "in")
	return s
}

func (s *recordSink) Run() raft.Status {
	r, err := raft.Pop[record](s.in)
	if err != nil {
		return raft.Stop
	}
	now := time.Now()
	if s.count == 0 {
		s.first = now
	}
	if r.popNs != 0 {
		s.ln.add("raft.hop", r.seq, -1, r.popNs, s.ln.now())
	}
	if s.lad != nil {
		if start := s.clk.p.Load(); start != nil {
			g := int(r.seq / linesPerPost)
			s.lr.sink[s.lad.rungOf(g)].record(s.lad, g, now.Sub(start.Add(time.Duration(r.due))))
		}
	}
	s.count++
	s.sum += r.val
	s.arrived.Store(s.count)
	return raft.Proceed
}

// gwRun is one gateway lifecycle.
type gwRun struct {
	gw    *raft.Gateway
	src   *raft.Source[[]byte]
	parse *parseKernel
	snk   *recordSink
	ex    *raft.Execution
	lc    lifecycle

	observed atomic.Int64
}

func startGateway(tr *tracer) (*gwRun, error) {
	g := &gwRun{parse: newParse(), snk: newRecordSink()}
	var err error
	if g.gw, err = raft.NewGateway(raft.GatewayConfig{}); err != nil {
		return nil, err
	}
	g.src = raft.NewSource[[]byte](gwSource)
	if err := raft.BindSource(g.gw, g.src, func(p []byte) ([][]byte, error) {
		if len(p) == 0 {
			return nil, fmt.Errorf("empty payload")
		}
		return bytes.Split(p, []byte("\n")), nil
	}); err != nil {
		return nil, err
	}
	if tr != nil {
		g.parse.tr, g.parse.ln = tr, tr.lane("gateway.parse")
		g.snk.ln = tr.lane("gateway.sink")
	}
	m := raft.NewMap()
	if _, err := m.Link(g.src, g.parse); err != nil {
		return nil, err
	}
	if _, err := m.Link(g.parse, g.snk); err != nil {
		return nil, err
	}
	s0 := time.Now()
	g.ex, err = m.ExeAsync(raft.WithGateway(g.gw), raft.WithObserver(observeEvery, func(raft.LiveStats) {
		g.observed.Add(1)
	}))
	if err != nil {
		return nil, err
	}
	g.lc.start = time.Since(s0)
	return g, nil
}

// stop closes the intake, waits for the graph to drain and times it from
// the close.
func (g *gwRun) stop() error {
	t := time.Now()
	g.src.CloseIntake()
	rep, err := g.ex.Wait()
	g.lc.drain = time.Since(t)
	g.lc.rep = rep
	return err
}

// stats reads the gateway's /v1/stats.
func (g *gwRun) stats(c *http.Client) (gateway.Stats, error) {
	var st gateway.Stats
	resp, err := c.Get("http://" + g.gw.Addr() + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// poster is one load-generator goroutine: one tenant on one keep-alive
// connection, sending every gwConns-th post of the ladder and every
// gwConns-th /metrics scrape.
type poster struct {
	id     int
	tenant string
	c      *http.Client
	gen    []genRung
	body   []byte
	// accepted lines and their sum, for the exactly-once oracle.
	lines, sum int64
	scrapes    []int64 // ns per /metrics scrape
	scrapeErrs int
}

func (p *poster) run(seed uint64, addr string, lad *ladder, clk *clock, done chan<- struct{}) {
	defer func() { done <- struct{}{} }()
	url := "http://" + addr + "/v1/ingest/" + gwSource
	start := *clk.p.Load()
	nextScrape := start.Add(time.Duration(p.id) * scrapeEvery)
	for j := p.id; j < lad.total(); j += gwConns {
		r := lad.rungOf(j)
		gr := &p.gen[r]
		due := start.Add(lad.due(j))
		rungEnd := start.Add(time.Duration(r)*(lad.dur+lad.gap) + lad.dur)
		if time.Now().After(nextScrape) {
			p.scrape(addr)
			nextScrape = nextScrape.Add(gwConns * scrapeEvery)
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if time.Since(rungEnd) > lad.gap {
			gr.missed++ // the generator fell a gap behind: the post is never sent
			continue
		}
		var sum int64
		p.body, sum = appendPost(p.body[:0], seed, j, int64(lad.due(j)))
		gr.lag.record(int64(time.Since(due)))
		gr.sentAt(due)
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(p.body))
		if err != nil {
			gr.failed++
			continue
		}
		req.Header.Set(gateway.TenantHeader, p.tenant)
		resp, err := p.c.Do(req)
		if err != nil {
			gr.failed++
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			gr.doneAt(lad, j, due, time.Now())
			p.lines += linesPerPost
			p.sum += sum
		case http.StatusTooManyRequests:
			gr.refused++
		default:
			gr.failed++
		}
	}
}

func (p *poster) scrape(addr string) {
	t := time.Now()
	resp, err := p.c.Get("http://" + addr + "/metrics")
	if err != nil {
		p.scrapeErrs++
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.scrapeErrs++
		return
	}
	p.scrapes = append(p.scrapes, int64(time.Since(t)))
}

// gwOutcome is what one gateway ladder run observed.
type gwOutcome struct {
	lr      *ladderResult
	lc      lifecycle
	stats   gateway.Stats
	scrapes []int64
	posts   int64
	lines   int64
}

// gatewayLadder runs one full lifecycle: start the gateway graph, drive
// the ladder from gwConns posters, read /v1/stats, close and check the
// exactly-once oracle.
func gatewayLadder(cfg runConfig, lad *ladder, tr *tracer, res *result) (gwOutcome, error) {
	var out gwOutcome
	t0 := time.Now()
	mm := markMem()
	g, err := startGateway(tr)
	if err != nil {
		return out, err
	}
	lr := newLadderResult(lad)
	clk := &clock{}
	g.snk.lad, g.snk.clk, g.snk.lr = lad, clk, lr
	posters := make([]*poster, gwConns)
	for i := range posters {
		posters[i] = &poster{id: i, tenant: fmt.Sprintf("tenant-%d", i), c: newClient(), gen: make([]genRung, len(lad.rates))}
	}
	clk.start(time.Now())
	done := make(chan struct{}, gwConns) // one completion per poster
	for _, p := range posters {
		go p.run(cfg.seed, g.gw.Addr(), lad, clk, done)
	}
	for range posters {
		<-done
	}
	out.stats, err = g.stats(posters[0].c)
	if err != nil {
		_ = g.stop()
		return out, err
	}
	if err := g.stop(); err != nil {
		return out, err
	}
	for _, p := range posters {
		p.c.CloseIdleConnections()
	}
	g.lc.setup = g.snk.first.Sub(t0)
	lr.alloc, _ = mm.since()
	lr.events = uint64(lad.total() * linesPerPost)
	out.lc, out.lr = g.lc, lr

	var lines, sum int64
	for _, p := range posters {
		for r := range lr.gen {
			lr.gen[r].merge(&p.gen[r])
		}
		lines += p.lines
		sum += p.sum
		out.scrapes = append(out.scrapes, p.scrapes...)
		if p.scrapeErrs > 0 {
			res.note("gateway: %d /metrics scrapes failed", p.scrapeErrs)
		}
	}
	var failed, refused int64
	for r := range lr.gen {
		out.posts += lr.gen[r].sent
		failed += lr.gen[r].failed
		refused += lr.gen[r].refused
	}
	out.lines = lines
	ok := g.snk.count == lines && g.snk.sum == sum && g.parse.bad == 0
	res.attempted += out.posts
	res.refused += refused
	res.failed += failed
	if !ok {
		res.failed += out.posts - failed
		res.note("ORACLE FAILED: gateway exactly-once: sink %d lines sum %d, accepted %d lines sum %d, %d unparsable",
			g.snk.count, g.snk.sum, lines, sum, g.parse.bad)
	}
	if g.observed.Load() == 0 && lad.span() > 2*observeEvery {
		res.note("gateway: the LiveStats observer never ran")
	}
	return out, nil
}

func runGateway(cfg runConfig, res *result) error {
	// One one-post lifecycle and ladderRuns ladder lifecycles give the
	// setup times.
	o, err := gatewayLadder(cfg, newLadder([]float64{1000}, time.Millisecond, 0), nil, res)
	if err != nil {
		return err
	}
	setups := []float64{o.lc.setup.Seconds()}
	var lrs []*ladderResult
	var lines, shed int64
	var secs float64
	for k := 0; k < ladderRuns; k++ {
		lad := groupLadder(cfg.budget / (5 * ladderRuns))
		o, err := gatewayLadder(cfg, lad, nil, res)
		if err != nil {
			return err
		}
		setups = append(setups, o.lc.setup.Seconds())
		lrs = append(lrs, o.lr)
		lines += o.lines
		secs += lad.span().Seconds()
		for _, t := range o.stats.Tenants {
			shed += int64(t.ShedModel + t.ShedQuota)
		}
	}
	reportLadders(res, lrs, linesPerPost)
	res.set("setup_s", "s", median(setups))
	res.set("items_per_s", "1/s", float64(lines)/secs)
	res.set("bytes_per_s", "B/s", float64(lines)*lineBytes(cfg.seed)/secs)
	res.note("gateway: /v1/stats reports %d posts shed", shed)
	return nil
}

// lineBytes is the mean accepted line size of a post, newline included.
func lineBytes(seed uint64) float64 {
	b, _ := appendPost(nil, seed, 1000, int64(time.Second))
	return float64(len(b)+1) / linesPerPost
}

// layersGateway runs a shorter traced ladder for the hop, scrape, shed and
// generator-lag metrics, then probes one admission in-process.
func layersGateway(cfg runConfig, tr *tracer, res *result) error {
	o, err := gatewayLadder(cfg, groupLadder(cfg.budget*5/100), tr, res)
	if err != nil {
		return err
	}
	res.lifecycles = append(res.lifecycles, o.lc)
	hops := tr.durations("raft.hop")
	res.set("raft.hop_us.p50", "us", nsQuantile(hops, 0.5)/1e3)
	res.set("raft.hop_us.p99", "us", nsQuantile(hops, 0.99)/1e3)
	res.set("gateway.scrape_us.p99", "us", nsQuantile(o.scrapes, 0.99)/1e3)
	var model, quota uint64
	for _, t := range o.stats.Tenants {
		model += t.ShedModel
		quota += t.ShedQuota
	}
	posts := float64(max(o.posts, 1))
	res.set("gateway.shed_ratio.model", "ratio", float64(model)/posts)
	res.set("gateway.shed_ratio.quota", "ratio", float64(quota)/posts)
	lagMetrics(res, []*ladderResult{o.lr})
	return admitProbe(cfg, tr, res)
}

// admitProbe times Handler().ServeHTTP in-process for one 32-line post
// into a drained source: each post waits until the sink has every line
// accepted before it, so admission sees an empty link.
func admitProbe(cfg runConfig, tr *tracer, res *result) error {
	const posts = 3000
	g, err := startGateway(nil)
	if err != nil {
		return err
	}
	h := g.gw.Handler()
	ln := tr.lane("gateway.admit")
	var lines, sum, refused int64
	var body []byte
	for j := 0; j < posts; j++ {
		for g.snk.arrived.Load() < lines {
			runtime.Gosched()
		}
		var s int64
		body, s = appendPost(body[:0], cfg.seed, j, 0)
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest/"+gwSource, bytes.NewReader(body))
		req.Header.Set(gateway.TenantHeader, "probe")
		w := httptest.NewRecorder()
		sp := ln.open("gateway.admit", uint64(j), -1)
		h.ServeHTTP(w, req)
		ln.close(sp)
		switch w.Code {
		case http.StatusAccepted:
			lines += linesPerPost
			sum += s
		case http.StatusTooManyRequests:
			refused++
		default:
			res.failed++
			res.note("admit probe: post %d got status %d", j, w.Code)
		}
	}
	if err := g.stop(); err != nil {
		return err
	}
	res.refused += refused
	res.check(g.snk.count == lines && g.snk.sum == sum, posts,
		"admit probe exactly-once: sink %d lines sum %d, accepted %d lines sum %d", g.snk.count, g.snk.sum, lines, sum)
	res.note("admit probe: %d of %d posts refused", refused, posts)
	d := tr.durations("gateway.admit")
	res.set("gateway.admit_us.p50", "us", nsQuantile(d, 0.5)/1e3)
	res.set("gateway.admit_us.p99", "us", nsQuantile(d, 0.99)/1e3)
	return nil
}
