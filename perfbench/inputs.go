package main

import (
	"strconv"

	"raftlib/internal/corpus"
)

// Every input the program receives is a pure function of the run's seed,
// so the same seed gives byte-identical inputs on every run.

// mix is the splitmix64 finaliser: a cheap, well-spread hash of (seed, i).
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// elemValue is element i of the seed's stream: 24 bits, so sums of many
// millions of elements cannot overflow.
func elemValue(seed, i uint64) int64 { return int64(mix(seed, i) >> 40) }

// elements returns the first n elements of the seed's stream and their sum.
func elements(seed uint64, n int) ([]int64, int64) {
	vs := make([]int64, n)
	var sum int64
	for i := range vs {
		vs[i] = elemValue(seed, uint64(i))
		sum += vs[i]
	}
	return vs, sum
}

// corpusBytes is the text-search corpus size: large enough that a pass is
// tens of milliseconds, small enough to generate in well under a second.
const corpusBytes = 128 << 20

func makeCorpus(seed uint64, size int) []byte {
	return corpus.Generate(corpus.Spec{Bytes: size, Seed: mix(seed, 0) | 1})
}

// linesPerPost is the gateway batch size: one POST carries 32 lines.
const linesPerPost = 32

// appendPost appends gateway post j: linesPerPost lines of
// "<seq> <due offset ns> <value>", where seq numbers lines across the whole
// run and dueNs is the post's due time relative to the ladder start. It
// returns the sum of the post's values for the exactly-once oracle.
func appendPost(dst []byte, seed uint64, j int, dueNs int64) ([]byte, int64) {
	var sum int64
	for k := 0; k < linesPerPost; k++ {
		seq := uint64(j*linesPerPost + k)
		v := elemValue(seed, seq)
		sum += v
		if k > 0 {
			dst = append(dst, '\n')
		}
		dst = strconv.AppendUint(dst, seq, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, dueNs, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, v, 10)
	}
	return dst, sum
}

// docSize is one text-search request: a 1 MiB document of the corpus.
const docSize = 1 << 20

// requestDoc is the corpus document text-search request i searches.
func requestDoc(seed uint64, i, ndocs int) int {
	return int(mix(seed^0x5ea5c4, uint64(i)) % uint64(ndocs))
}
