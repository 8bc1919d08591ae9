package main

import (
	"bytes"
	"time"

	"raftlib/internal/apps/textsearch"
	"raftlib/internal/corpus"
	"raftlib/internal/search"
	"raftlib/kernels"
)

// textsearch: the paper's Fig. 10 pipeline (filereader -> horspool x2 ->
// reduce) over a seeded 128 MiB corpus. Elements are 256 KiB chunks, so
// per-element runtime costs are amortised: this is the bypass workload,
// where ring, wake and scheduler changes should read "no change".

const tsReplicas = 2

var pattern = []byte(corpus.DefaultPattern)

func searchCfg() textsearch.Config {
	return textsearch.Config{Algo: "horspool", Cores: tsReplicas}
}

// tsInputs is the corpus with its oracle counts.
type tsInputs struct {
	corpus  []byte
	docs    [][]byte
	docHits []int64
	hits    int64
}

func makeTSInputs(seed uint64) tsInputs {
	in := tsInputs{corpus: makeCorpus(seed, corpusBytes)}
	in.hits = int64(bytes.Count(in.corpus, pattern))
	for off := 0; off+docSize <= len(in.corpus); off += docSize {
		d := in.corpus[off : off+docSize]
		in.docs = append(in.docs, d)
		in.docHits = append(in.docHits, int64(bytes.Count(d, pattern)))
	}
	return in
}

// tsSetup generates the corpus and serves one request: input generation,
// graph build, Exe start, the first chunk through to the reduce sink.
func tsSetup(cfg runConfig, res *result) (tsInputs, time.Duration, error) {
	t0 := time.Now()
	in := makeTSInputs(cfg.seed)
	r, err := textsearch.Run(in.docs[0], searchCfg())
	if err != nil {
		return in, 0, err
	}
	d := time.Since(t0)
	res.check(r.Hits == in.docHits[0], 1, "textsearch setup request: hits %d, want %d", r.Hits, in.docHits[0])
	return in, d, nil
}

// requestLadder offers 1 MiB search requests at 75, 150, 300 and 1200 per
// second (low = 75, high = 300) from one open-loop generator. A request
// takes 1.5 to 2 ms here, so the high rung runs at about half of capacity
// and the top rung, four times higher, lies past it.
func requestLadder(rung time.Duration) *ladder {
	return newLadder([]float64{75, 150, 300, 1200}, rung, 100*time.Millisecond)
}

// pacedSearch runs the request ladder. A request's event and request
// latency are the same interval: due time to hits counted.
func pacedSearch(cfg runConfig, in tsInputs, lad *ladder, res *result) (*ladderResult, error) {
	lr := newLadderResult(lad)
	clk := &clock{}
	mm := markMem()
	clk.start(time.Now())
	sc := searchCfg()
	for i := 0; i < lad.total(); i++ {
		due := clk.dueAt(lad, i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r := lad.rungOf(i)
		gr := &lr.gen[r]
		if time.Since(clk.dueAt(lad, lad.firsts[r+1]-1)) > lad.gap {
			gr.missed++ // the generator fell a gap behind: the request is never sent
			continue
		}
		gr.lag.record(int64(time.Since(due)))
		gr.sentAt(due)
		doc := requestDoc(cfg.seed, i, len(in.docs))
		out, err := textsearch.Run(in.docs[doc], sc)
		lat := time.Since(due)
		if err != nil || out.Hits != in.docHits[doc] {
			gr.failed++
			res.check(false, 1, "textsearch request %d (doc %d): hits %d err %v, want %d", i, doc, out.Hits, err, in.docHits[doc])
			continue
		}
		res.attempted++
		gr.doneAt(lad, i, due, due.Add(lat))
		lr.sink[r].record(lad, i, lat)
	}
	lr.alloc, _ = mm.since()
	lr.events = uint64(lad.total() * docSize / kernels.DefaultChunkSize)
	return lr, nil
}

// searchPass runs the pipeline over the whole corpus once and checks the
// hit count against bytes.Count.
func searchPass(in tsInputs, res *result) (float64, error) {
	r, err := textsearch.Run(in.corpus, searchCfg())
	if err != nil {
		return 0, err
	}
	res.check(r.Hits == in.hits, 1, "textsearch pass: hits %d, want %d", r.Hits, in.hits)
	return r.Throughput(len(in.corpus)), nil
}

func runTextsearch(cfg runConfig, res *result) error {
	deadline := time.Now().Add(cfg.budget)
	var setups []float64
	var in tsInputs
	for i := 0; i < 3; i++ {
		in = tsInputs{} // drop the previous corpus before generating the next
		var d time.Duration
		var err error
		if in, d, err = tsSetup(cfg, res); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	// Two ladder runs, each followed by its share of whole-corpus passes.
	var lrs []*ladderResult
	var rates []float64
	passStart := time.Now()
	rest := deadline.Sub(passStart)
	for k := 0; k < 2; k++ {
		lr, err := pacedSearch(cfg, in, requestLadder(cfg.budget*15/200), res)
		if err != nil {
			return err
		}
		lrs = append(lrs, lr)
		phaseEnd := passStart.Add(rest * time.Duration(k+1) / 2)
		for i := 0; i < 3 || time.Now().Before(phaseEnd); i++ {
			rate, err := searchPass(in, res)
			if err != nil {
				return err
			}
			rates = append(rates, rate)
		}
	}
	reportLadders(res, lrs, 1)
	rate := iqMean(rates)
	res.set("setup_s", "s", median(setups))
	res.set("bytes_per_s", "B/s", rate)
	res.set("items_per_s", "1/s", rate/kernels.DefaultChunkSize)
	res.note("textsearch: %d passes over %d bytes", len(rates), len(in.corpus))
	return nil
}

// layersTextsearch prices the serial baseline (one goroutine scanning the
// same corpus with horspool) and the pipeline's parallel efficiency.
func layersTextsearch(cfg runConfig, tr *tracer, res *result) error {
	in := makeTSInputs(cfg.seed)
	h, err := search.NewHorspool(pattern)
	if err != nil {
		return err
	}
	ln := tr.lane("textsearch")
	var serial, piped []float64
	for i := 0; i < 5; i++ {
		sp := ln.open("search.scan", uint64(i), -1)
		n := search.CountChunked(h, in.corpus, kernels.DefaultChunkSize)
		ln.close(sp)
		res.check(int64(n) == in.hits, 1, "serial horspool: hits %d, want %d", n, in.hits)
		s := ln.spans[sp]
		serial = append(serial, float64(len(in.corpus))/(float64(s.end-s.start)/1e9))

		sp = ln.open("textsearch.pass", uint64(i), -1)
		rate, err := searchPass(in, res)
		ln.close(sp)
		if err != nil {
			return err
		}
		piped = append(piped, rate)
	}
	base := median(serial)
	res.set("search.horspool_bytes_per_s", "B/s", base)
	res.set("textsearch.efficiency", "ratio", median(piped)/(tsReplicas*base))
	return nil
}
