package main

import (
	"fmt"
	"time"

	"raftlib/raft"
)

// chain: source -> pass -> pass -> sink, one int64 element at a time with
// default Exe options. The middle hop is a lock-free SPSC link and the
// outer hops use the default mutex ring, so both ring kinds sit on the
// blocking path. Per-element costs dominate: ring hop, wake, per-invocation
// clock and gate work, monitor.

// chainElems is one throughput repetition (a few tenths of a second here).
// Repetition rates vary widely from one to the next, so a run takes the
// median of many short repetitions.
const chainElems = 500_000

// chainGraph is one built chain.
type chainGraph struct {
	m            *raft.Map
	src          *source
	pass1, pass2 *pass
	snk          *sink
}

func buildChain(src *source, expect int64) (*chainGraph, error) {
	g := &chainGraph{m: raft.NewMap(), src: src, pass1: newPass("pass1"), pass2: newPass("pass2"), snk: newSink(expect)}
	if _, err := g.m.Link(g.src, g.pass1); err != nil {
		return nil, err
	}
	if _, err := g.m.Link(g.pass1, g.pass2, raft.AsLockFree()); err != nil {
		return nil, err
	}
	if _, err := g.m.Link(g.pass2, g.snk); err != nil {
		return nil, err
	}
	return g, nil
}

// lifecycle times one execution: setup (from t0, before inputs were made,
// to the first element at the sink), Exe start and drain.
type lifecycle struct {
	setup, start, drain time.Duration
	rep                 *raft.Report
}

// execute runs m to completion. first and last read the sink's first and
// last arrival once the run is over.
func execute(m *raft.Map, t0 time.Time, first, last func() time.Time) (lifecycle, error) {
	var lc lifecycle
	s0 := time.Now()
	ex, err := m.ExeAsync()
	if err != nil {
		return lc, err
	}
	lc.start = time.Since(s0)
	rep, err := ex.Wait()
	end := time.Now()
	if err != nil {
		return lc, err
	}
	lc.rep = rep
	lc.setup = first().Sub(t0)
	lc.drain = end.Sub(last())
	return lc, nil
}

// chainRep runs one throughput repetition and checks the sum oracle.
func chainRep(cfg runConfig, rep int, tr *tracer, res *result) (lc lifecycle, rate float64, err error) {
	t0 := time.Now()
	vals, want := elements(cfg.seed+uint64(rep)*7919, chainElems)
	src := newSource(vals)
	g, err := buildChain(src, chainElems)
	if err != nil {
		return lc, 0, err
	}
	if tr != nil {
		src.traced(tr, "chain.source", "raft.push.mutex")
		g.pass1.traced(tr, "raft.pop.mutex", "raft.push.spsc")
		g.pass2.traced(tr, "raft.pop.spsc", "raft.push.mutex")
		g.snk.traced(tr, "chain.sink", "raft.pop.mutex")
	}
	lc, err = execute(g.m, t0, func() time.Time { return g.snk.first }, func() time.Time { return g.snk.last })
	if err != nil {
		return lc, 0, err
	}
	res.check(g.snk.count == chainElems && g.snk.sum == want, chainElems,
		"chain rep %d: sink count %d sum %d, want %d and %d", rep, g.snk.count, g.snk.sum, chainElems, want)
	return lc, float64(chainElems) / g.snk.last.Sub(g.snk.first).Seconds(), nil
}

// pacedChain runs the offered-load ladder through the chain.
func pacedChain(cfg runConfig, lad *ladder, res *result) (*ladderResult, lifecycle, error) {
	t0 := time.Now()
	lr := newLadderResult(lad)
	clk := &clock{}
	want, n := ladderSum(cfg.seed, lad)
	mm := markMem()
	g, err := buildChain(newPacedSource(cfg.seed, lad, clk, lr, pacingTick), n)
	if err != nil {
		return nil, lifecycle{}, err
	}
	g.snk.lad, g.snk.clk, g.snk.lr = lad, clk, lr
	lc, err := execute(g.m, t0, func() time.Time { return g.snk.first }, func() time.Time { return g.snk.last })
	if err != nil {
		return nil, lc, err
	}
	lr.alloc, _ = mm.since()
	lr.events = uint64(n)
	res.check(g.snk.count == n && g.snk.sum == want, n,
		"chain ladder: sink count %d sum %d, want %d and %d", g.snk.count, g.snk.sum, n, want)
	return lr, lc, nil
}

// groupLadder is the offered-load ladder of chain, gateway and bridge:
// 1k, 2k, 4k and 8k groups of 32 elements per second (low = 1k, high = 4k).
func groupLadder(rung time.Duration) *ladder {
	return newLadder([]float64{1000, 2000, 4000, 8000}, rung, 100*time.Millisecond)
}

// ladderRuns is how many times a run repeats its ladder, each time in a
// fresh lifecycle. Latency tails differ more between executions than
// within one, so several short executions repeat better than one long one.
const ladderRuns = 6

// runElements drives chain or bridge: ladderRuns ladder lifecycles, each
// followed by throughput repetitions until its share of the budget is
// spent. Throughput is the interquartile mean over repetitions.
func runElements(cfg runConfig, res *result, paced func() (*ladderResult, lifecycle, error),
	rep func(i int) (lifecycle, float64, error), items int64) error {
	start := time.Now()
	var lrs []*ladderResult
	var setups, rates []float64
	for k := 0; k < ladderRuns; k++ {
		lr, lc, err := paced()
		if err != nil {
			return err
		}
		lrs = append(lrs, lr)
		setups = append(setups, lc.setup.Seconds())
		phaseEnd := start.Add(cfg.budget * time.Duration(k+1) / ladderRuns)
		for i := 0; i < 2 || time.Until(phaseEnd) > 400*time.Millisecond; i++ {
			lc, rate, err := rep(len(rates))
			if err != nil {
				return err
			}
			setups = append(setups, lc.setup.Seconds())
			rates = append(rates, rate)
		}
	}
	reportLadders(res, lrs, linesPerPost)
	rate := iqMean(rates)
	res.set("setup_s", "s", median(setups))
	res.set("items_per_s", "1/s", rate)
	res.set("bytes_per_s", "B/s", rate*8)
	res.note("%d repetitions of %d elements, rates%s", len(rates), items, fmtRates(rates))
	return nil
}

func runChain(cfg runConfig, res *result) error {
	return runElements(cfg, res,
		func() (*ladderResult, lifecycle, error) { return pacedChain(cfg, groupLadder(cfg.budget/75), res) },
		func(i int) (lifecycle, float64, error) { return chainRep(cfg, i, nil, res) },
		chainElems)
}

func fmtRates(xs []float64) string {
	s := ""
	for _, x := range xs {
		s += fmt.Sprintf(" %.4g", x)
	}
	return s
}

// layersChain runs one traced repetition and derives the port-accessor,
// kernel-gap and busy metrics from its spans.
func layersChain(cfg runConfig, tr *tracer, res *result) error {
	lc, _, err := chainRep(cfg, 0, tr, res)
	if err != nil {
		return err
	}
	res.lifecycles = append(res.lifecycles, lc)
	for _, kind := range []string{"mutex", "spsc"} {
		push := tr.durations("raft.push." + kind)
		pop := tr.durations("raft.pop." + kind)
		res.set("raft.push_ns."+kind+".p50", "ns", nsQuantile(push, 0.5))
		res.set("raft.push_ns."+kind+".p99", "ns", nsQuantile(push, 0.99))
		res.set("raft.pop_ns."+kind+".p50", "ns", nsQuantile(pop, 0.5))
		res.set("raft.pop_ns."+kind+".p99", "ns", nsQuantile(pop, 0.99))
		blocked := 0
		for _, d := range pop {
			if d > int64(10*time.Microsecond) {
				blocked++
			}
		}
		res.set("raft.pop_blocked_ratio."+kind, "ratio", float64(blocked)/float64(max(len(pop), 1)))
	}
	gaps := tr.durations("core.gap")
	res.set("core.gap_ns.p50", "ns", nsQuantile(gaps, 0.5))
	res.set("core.gap_ns.p99", "ns", nsQuantile(gaps, 0.99))
	busy, gap := mean(tr.durations("kernel.run")), mean(gaps)
	res.set("raft.kernel_busy_ratio", "ratio", busy/(busy+gap))
	return nil
}
