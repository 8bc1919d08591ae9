package ringbuffer

import (
	"sync"
	"testing"
	"time"
)

// TestRingPushNWrapAround forces a batch across the physical end of the
// ring and checks FIFO order and signal alignment on the way out.
func TestRingPushNWrapAround(t *testing.T) {
	r := NewRing[int](8)
	// Advance head so the next batch must split: fill 6, drain 5.
	for i := 0; i < 6; i++ {
		if err := r.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, _, err := r.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	// One buffered element (5) at index 5; pushing 6 wraps.
	vs := []int{10, 11, 12, 13, 14, 15}
	sigs := []Signal{SigNone, SigUser, SigNone, SigNone, SigUser, SigEOF}
	if err := r.PushN(vs, sigs); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 7 {
		t.Fatalf("Len = %d, want 7", r.Len())
	}
	if v, s, err := r.Pop(); err != nil || v != 5 || s != SigNone {
		t.Fatalf("Pop = (%d,%v,%v), want (5,SigNone,nil)", v, s, err)
	}
	dst := make([]int, 6)
	out := make([]Signal, 6)
	n, err := r.PopN(dst, out)
	if err != nil || n != 6 {
		t.Fatalf("PopN = (%d,%v), want (6,nil)", n, err)
	}
	for i := range vs {
		if dst[i] != vs[i] || out[i] != sigs[i] {
			t.Fatalf("element %d = (%d,%v), want (%d,%v)", i, dst[i], out[i], vs[i], sigs[i])
		}
	}
}

// TestRingPushNChunksOversizedBatch verifies a batch larger than the free
// space (even larger than capacity) is delivered completely, in order, by
// chunking against a concurrent consumer.
func TestRingPushNChunksOversizedBatch(t *testing.T) {
	r := NewRing[int](4)
	vs := make([]int, 100)
	for i := range vs {
		vs[i] = i
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := r.PushN(vs, nil); err != nil {
			t.Errorf("PushN: %v", err)
		}
		r.Close()
	}()
	var got []int
	dst := make([]int, 7)
	for {
		n, err := r.PopN(dst, nil)
		got = append(got, dst[:n]...)
		if err != nil {
			break
		}
	}
	<-done
	if len(got) != len(vs) {
		t.Fatalf("received %d, want %d", len(got), len(vs))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: got %d", i, v)
		}
	}
}

// TestRingDrainToSemantics: empty+open → (0,nil); closed+drained →
// (0,ErrClosed).
func TestRingDrainToSemantics(t *testing.T) {
	r := NewRing[int](4)
	dst := make([]int, 4)
	if n, err := r.DrainTo(dst, nil); n != 0 || err != nil {
		t.Fatalf("empty DrainTo = (%d,%v), want (0,nil)", n, err)
	}
	r.Push(1, SigNone)
	r.Push(2, SigNone)
	r.Close()
	if n, err := r.DrainTo(dst, nil); n != 2 || err != nil {
		t.Fatalf("DrainTo = (%d,%v), want (2,nil)", n, err)
	}
	if n, err := r.DrainTo(dst, nil); n != 0 || err != ErrClosed {
		t.Fatalf("drained DrainTo = (%d,%v), want (0,ErrClosed)", n, err)
	}
}

// TestRingPushNStaleSignalCleared ensures a nil-sigs bulk push clears
// signal slots left over from earlier signalled elements.
func TestRingPushNStaleSignalCleared(t *testing.T) {
	r := NewRing[int](4)
	r.Push(1, SigUser)
	r.Pop() // slot 0 retains SigUser in the signal array
	for i := 0; i < 3; i++ {
		r.Push(0, SigNone)
	}
	r.Pop()
	r.Pop()
	r.Pop()
	// Next write lands on the stale slot; bulk push with nil sigs.
	if err := r.PushN([]int{7, 8}, nil); err != nil {
		t.Fatal(err)
	}
	if _, s, err := r.Pop(); err != nil || s != SigNone {
		t.Fatalf("stale signal leaked: sig=%v err=%v", s, err)
	}
}

// TestSPSCBulkWrapAround pushes batches across the mask boundary of the
// lock-free queue and checks order and signals.
func TestSPSCBulkWrapAround(t *testing.T) {
	q := NewSPSC[int](8)
	// Advance indices to near the wrap point.
	for i := 0; i < 6; i++ {
		q.Push(i, SigNone)
	}
	for i := 0; i < 6; i++ {
		q.Pop()
	}
	vs := []int{1, 2, 3, 4, 5}
	sigs := []Signal{SigUser, SigNone, SigNone, SigEOF, SigUser}
	if err := q.PushN(vs, sigs); err != nil {
		t.Fatal(err)
	}
	dst := make([]int, 8)
	out := make([]Signal, 8)
	n, err := q.DrainTo(dst, out)
	if err != nil || n != 5 {
		t.Fatalf("DrainTo = (%d,%v), want (5,nil)", n, err)
	}
	for i := range vs {
		if dst[i] != vs[i] || out[i] != sigs[i] {
			t.Fatalf("element %d = (%d,%v), want (%d,%v)", i, dst[i], out[i], vs[i], sigs[i])
		}
	}
}

// TestSPSCBulkProducerConsumer streams a large sequence through bulk ops
// concurrently (the SPSC contract: exactly one of each).
func TestSPSCBulkProducerConsumer(t *testing.T) {
	const total = 50000
	q := NewSPSC[int](64)
	go func() {
		vs := make([]int, 37)
		next := 0
		for next < total {
			k := len(vs)
			if k > total-next {
				k = total - next
			}
			for i := 0; i < k; i++ {
				vs[i] = next + i
			}
			if err := q.PushN(vs[:k], nil); err != nil {
				t.Errorf("PushN: %v", err)
				return
			}
			next += k
		}
		q.Close()
	}()
	dst := make([]int, 53)
	want := 0
	for {
		n, err := q.PopN(dst, nil)
		for i := 0; i < n; i++ {
			if dst[i] != want {
				t.Fatalf("order broken: got %d want %d", dst[i], want)
			}
			want++
		}
		if err != nil {
			break
		}
	}
	if want != total {
		t.Fatalf("received %d, want %d", want, total)
	}
}

// TestSPSCLenNeverNegative hammers Len from a third goroutine while a
// producer/consumer pair races — the load-order fix must keep the result
// non-negative and within capacity.
func TestSPSCLenNeverNegative(t *testing.T) {
	q := NewSPSC[int](16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q.TryPush(i, SigNone)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q.TryPop()
		}
	}()
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		if l := q.Len(); l < 0 || l > q.Cap() {
			close(stop)
			t.Fatalf("Len = %d outside [0,%d]", l, q.Cap())
		}
	}
	close(stop)
	wg.Wait()
}

// TestBackoffTransitionCounters checks that a full-queue SPSC push records
// spin→yield→sleep escalation in the telemetry: the spinLimit spins and
// yieldLimit yields run out well inside the 5 ms the push stays blocked.
func TestBackoffTransitionCounters(t *testing.T) {
	q := NewSPSC[int](2)
	q.Push(1, SigNone)
	q.Push(2, SigNone)
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.Push(3, SigNone) // blocks; spins through both tiers
	}()
	time.Sleep(5 * time.Millisecond)
	q.Pop()
	<-done
	tel := q.Telemetry().Snapshot()
	if tel.SpinYields == 0 {
		t.Fatalf("SpinYields = 0, want > 0")
	}
	if tel.SpinSleeps == 0 {
		t.Fatalf("SpinSleeps = 0, want > 0")
	}
}
