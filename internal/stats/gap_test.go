package stats

import "testing"

// TestGapSampler checks the sampling contract both users rely on: the first
// event is sampled, every gap lies in [1, 2S−1], the gaps Draw returns are
// exactly the events Skip passes over plus the sampled one, and their mean
// is near S.
func TestGapSampler(t *testing.T) {
	const stride, events = 64, 200_000
	var g GapSampler
	if g.Skip() {
		t.Fatal("first event not sampled")
	}
	weight := uint64(g.Draw(stride, 7))
	samples := 1
	for i := 1; i < events; i++ {
		if g.Skip() {
			continue
		}
		gap := g.Draw(stride, 7)
		if gap < 1 || gap > 2*stride-1 {
			t.Fatalf("gap %d outside [1, %d]", gap, 2*stride-1)
		}
		weight += uint64(gap)
		samples++
	}
	if weight < events || weight > events+2*stride-2 {
		t.Fatalf("gap weights sum to %d over %d events", weight, events)
	}
	if mean := float64(weight) / float64(samples); mean < 0.9*stride || mean > 1.1*stride {
		t.Fatalf("mean gap %.1f, want about %d", mean, stride)
	}

	var every GapSampler
	for i := 0; i < 10; i++ {
		if every.Skip() || every.Draw(1, 7) != 1 {
			t.Fatal("stride 1 must sample every event with weight 1")
		}
	}
}
