package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"raftlib/internal/oar"
	"raftlib/raft"
)

// bridge: a benchmark source feeds oar.Bridge[int64] over loopback TCP
// into a benchmark sink, two maps in one process. Without it the oar frame
// encode and decode path goes unmeasured.

// bridgeElems is one throughput repetition (a few tenths of a second here);
// a run takes the median of many.
const bridgeElems = 1_000_000

var bridgeStreams atomic.Int64

// bridgeRun executes producer (src -> Sender) and consumer (Receiver ->
// snk) concurrently and checks the sum oracle.
func bridgeRun(src *source, snk *sink, t0 time.Time, want int64, res *result, what string) (lifecycle, error) {
	var lc lifecycle
	node, err := oar.NewNode("perfbench", "127.0.0.1:0")
	if err != nil {
		return lc, err
	}
	defer node.Close()
	send, recv, err := oar.Bridge[int64](node, fmt.Sprintf("perfbench-%d", bridgeStreams.Add(1)))
	if err != nil {
		return lc, err
	}
	producer, consumer := raft.NewMap(), raft.NewMap()
	if _, err := producer.Link(src, send); err != nil {
		return lc, err
	}
	if _, err := consumer.Link(recv, snk); err != nil {
		return lc, err
	}
	s0 := time.Now()
	cex, err := consumer.ExeAsync()
	if err != nil {
		return lc, err
	}
	pex, err := producer.ExeAsync()
	if err != nil {
		_, _ = cex.Wait() // the receiver gives up once its first-connect wait expires
		return lc, err
	}
	lc.start = time.Since(s0)
	prep, perr := pex.Wait()
	crep, cerr := cex.Wait()
	end := time.Now()
	if perr != nil {
		return lc, perr
	}
	if cerr != nil {
		return lc, cerr
	}
	lc.setup = snk.first.Sub(t0)
	lc.drain = end.Sub(snk.last)
	lc.rep = crep
	lc.rep.Bridges = append(lc.rep.Bridges, prep.Bridges...)
	res.check(snk.count == snk.expect && snk.sum == want, snk.expect,
		"bridge %s: sink count %d sum %d, want %d and %d", what, snk.count, snk.sum, snk.expect, want)
	return lc, nil
}

func bridgeRep(cfg runConfig, rep int, tr *tracer, res *result) (lifecycle, float64, error) {
	t0 := time.Now()
	vals, want := elements(cfg.seed+uint64(rep)*104729, bridgeElems)
	src, snk := newSource(vals), newSink(bridgeElems)
	if tr != nil {
		src.traced(tr, "bridge.source", "oar.push")
		snk.traced(tr, "bridge.sink", "oar.pop")
	}
	lc, err := bridgeRun(src, snk, t0, want, res, fmt.Sprintf("rep %d", rep))
	if err != nil {
		return lc, 0, err
	}
	return lc, float64(bridgeElems) / snk.last.Sub(snk.first).Seconds(), nil
}

// pacedBridge runs the offered-load ladder through the bridge.
func pacedBridge(cfg runConfig, lad *ladder, res *result) (*ladderResult, lifecycle, error) {
	t0 := time.Now()
	lr := newLadderResult(lad)
	clk := &clock{}
	want, n := ladderSum(cfg.seed, lad)
	snk := newSink(n)
	snk.lad, snk.clk, snk.lr = lad, clk, lr
	mm := markMem()
	lc, err := bridgeRun(newPacedSource(cfg.seed, lad, clk, lr, 0), snk, t0, want, res, "ladder")
	lr.alloc, _ = mm.since()
	lr.events = uint64(n)
	return lr, lc, err
}

func runBridge(cfg runConfig, res *result) error {
	return runElements(cfg, res,
		func() (*ladderResult, lifecycle, error) { return pacedBridge(cfg, groupLadder(cfg.budget/75), res) },
		func(i int) (lifecycle, float64, error) { return bridgeRep(cfg, i, nil, res) },
		bridgeElems)
}

// layersBridge runs one traced repetition: push into the Sender's input,
// pop after the Receiver, and the bridges' recovery counters.
func layersBridge(cfg runConfig, tr *tracer, res *result) error {
	lc, _, err := bridgeRep(cfg, 0, tr, res)
	if err != nil {
		return err
	}
	res.lifecycles = append(res.lifecycles, lc)
	push, pop := tr.durations("oar.push"), tr.durations("oar.pop")
	res.set("oar.push_ns.p50", "ns", nsQuantile(push, 0.5))
	res.set("oar.push_ns.p99", "ns", nsQuantile(push, 0.99))
	res.set("oar.pop_ns.p50", "ns", nsQuantile(pop, 0.5))
	res.set("oar.pop_ns.p99", "ns", nsQuantile(pop, 0.99))
	var replayed, reconnects uint64
	for _, b := range lc.rep.Bridges {
		replayed += b.Replayed
		reconnects += b.Reconnects
	}
	res.set("oar.replayed", "count", float64(replayed))
	res.set("oar.reconnects", "count", float64(reconnects))
	return nil
}
