package main

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// inputStreams renders every input a seed produces, at test scale: the
// corpus prefix, the gateway payload stream of a short ladder, and the
// element sequence of the chain and bridge sources.
func inputStreams(seed uint64) (corpus, posts, elems []byte) {
	corpus = makeCorpus(seed, 4<<20)
	lad := groupLadder(50 * time.Millisecond)
	for j := 0; j < lad.total(); j++ {
		posts, _ = appendPost(posts, seed, j, int64(lad.due(j)))
		posts = append(posts, 0)
	}
	vs, _ := elements(seed, 100_000)
	for _, v := range vs {
		elems = binary.LittleEndian.AppendUint64(elems, uint64(v))
	}
	for i := 0; i < 64; i++ {
		elems = binary.LittleEndian.AppendUint64(elems, uint64(requestDoc(seed, i, corpusBytes/docSize)))
	}
	return corpus, posts, elems
}

func TestInputsDeterministic(t *testing.T) {
	c1, p1, e1 := inputStreams(42)
	c2, p2, e2 := inputStreams(42)
	if !bytes.Equal(c1, c2) {
		t.Error("same seed gave different corpora")
	}
	if !bytes.Equal(p1, p2) {
		t.Error("same seed gave different payload streams")
	}
	if !bytes.Equal(e1, e2) {
		t.Error("same seed gave different element sequences")
	}
}

func TestInputsDifferBySeed(t *testing.T) {
	// Seeds 0 and 1 are included because the corpus generator maps a zero
	// seed to one; the benchmark's own mixing must keep them apart.
	for _, pair := range [][2]uint64{{0, 1}, {1, 2}, {42, 43}} {
		c1, p1, e1 := inputStreams(pair[0])
		c2, p2, e2 := inputStreams(pair[1])
		if bytes.Equal(c1, c2) {
			t.Errorf("seeds %d and %d gave the same corpus", pair[0], pair[1])
		}
		if bytes.Equal(p1, p2) {
			t.Errorf("seeds %d and %d gave the same payload stream", pair[0], pair[1])
		}
		if bytes.Equal(e1, e2) {
			t.Errorf("seeds %d and %d gave the same element sequence", pair[0], pair[1])
		}
	}
}

// TestPostRoundTrip checks that a post parses back into the values and
// sum the exactly-once oracle expects.
func TestPostRoundTrip(t *testing.T) {
	body, sum := appendPost(nil, 7, 3, 12345)
	lines := bytes.Split(body, []byte("\n"))
	if len(lines) != linesPerPost {
		t.Fatalf("%d lines, want %d", len(lines), linesPerPost)
	}
	var got int64
	for k, l := range lines {
		f := bytes.Fields(l)
		if len(f) != 3 {
			t.Fatalf("line %q has %d fields", l, len(f))
		}
		if seq := atoi(f[0]); seq != int64(3*linesPerPost+k) {
			t.Errorf("line %d: seq %d", k, seq)
		}
		if due := atoi(f[1]); due != 12345 {
			t.Errorf("line %d: due %d", k, due)
		}
		got += atoi(f[2])
	}
	if got != sum {
		t.Errorf("parsed sum %d, want %d", got, sum)
	}
}

func TestLadderSchedule(t *testing.T) {
	lad := newLadder([]float64{1000, 2000}, time.Second, 100*time.Millisecond)
	if lad.total() != 3000 {
		t.Fatalf("total %d, want 3000", lad.total())
	}
	for _, c := range []struct {
		g    int
		rung int
		due  time.Duration
	}{
		{0, 0, 0},
		{999, 0, 999 * time.Millisecond},
		{1000, 1, 1100 * time.Millisecond},
		{2999, 1, 1100*time.Millisecond + 1999*time.Millisecond/2},
	} {
		if r := lad.rungOf(c.g); r != c.rung {
			t.Errorf("group %d: rung %d, want %d", c.g, r, c.rung)
		}
		if d := lad.due(c.g); d != c.due {
			t.Errorf("group %d: due %v, want %v", c.g, d, c.due)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 1000)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100_000 * 1000
		if got := h.quantile(q); got < want*0.96 || got > want*1.04 {
			t.Errorf("q%.2f = %.0f, want within 4%% of %.0f", q, got, want)
		}
	}
}
