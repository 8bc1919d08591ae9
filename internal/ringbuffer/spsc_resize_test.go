package ringbuffer

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitBlocked spins until the queue reports its producer blocked, so a
// test can inject a resize exactly while the writer is wedged on a full
// ring — the monitor's grow scenario.
func waitBlocked(t *testing.T, q *SPSC[int]) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.WriterBlockedFor() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never blocked")
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestSPSCResizeUnblocksFullProducer is the §4.1 write-block rule on the
// lock-free ring: a producer spinning on a full queue must complete its
// push after Resize grants space — without the consumer taking anything.
func TestSPSCResizeUnblocksFullProducer(t *testing.T) {
	q := NewSPSC[int](2)
	for i := 0; i < 2; i++ {
		if err := q.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- q.Push(2, SigNone) }()
	waitBlocked(t, q)
	if err := q.Resize(8); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resize did not unblock the producer")
	}
	if q.Cap() != 8 {
		t.Fatalf("cap = %d, want 8", q.Cap())
	}
	// All three elements, in order, across the epoch boundary.
	for want := 0; want < 3; want++ {
		v, _, err := q.Pop()
		if err != nil || v != want {
			t.Fatalf("pop = (%d, %v), want %d", v, err, want)
		}
	}
}

// TestSPSCBulkStraddlesSwap wedges a bulk push on a full ring, grows it,
// and then drains everything in one DrainTo call: the push batch must
// split across the epoch boundary on the way in, and the drain must
// cross the seal (old epoch, then new) on the way out with a single
// head publish.
func TestSPSCBulkStraddlesSwap(t *testing.T) {
	q := NewSPSC[int](4)
	batch := make([]int, 12)
	sigs := make([]Signal, 12)
	for i := range batch {
		batch[i] = i
		if i%3 == 0 {
			sigs[i] = SigUser
		}
	}
	done := make(chan error, 1)
	go func() { done <- q.PushN(batch, sigs) }()
	waitBlocked(t, q)
	if err := q.Resize(32); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if q.Len() != 12 {
		t.Fatalf("len = %d, want 12", q.Len())
	}
	// 4 elements live in the sealed epoch, 8 in the new one.
	dst := make([]int, 16)
	ds := make([]Signal, 16)
	n, err := q.DrainTo(dst, ds)
	if err != nil || n != 12 {
		t.Fatalf("DrainTo = (%d, %v), want 12", n, err)
	}
	for i := 0; i < 12; i++ {
		if dst[i] != i {
			t.Fatalf("dst[%d] = %d", i, dst[i])
		}
		want := SigNone
		if i%3 == 0 {
			want = SigUser
		}
		if ds[i] != want {
			t.Fatalf("sig[%d] = %v, want %v", i, ds[i], want)
		}
	}
}

// TestSPSCSignalSurvivesSwap seals a SigEOF into the old epoch and
// verifies it arrives synchronized with its element after the swap.
func TestSPSCSignalSurvivesSwap(t *testing.T) {
	q := NewSPSC[int](2)
	if err := q.Push(1, SigNone); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(2, SigEOF); err != nil {
		t.Fatal(err)
	}
	if err := q.Resize(16); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- q.Push(3, SigUser) }() // installs the epoch
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wantSig := []Signal{SigNone, SigEOF, SigUser}
	for i := 1; i <= 3; i++ {
		v, s, err := q.Pop()
		if err != nil || v != i || s != wantSig[i-1] {
			t.Fatalf("pop = (%d, %v, %v), want (%d, %v)", v, s, err, i, wantSig[i-1])
		}
	}
}

// TestSPSCShrinkMidStream drains most of a large ring, shrinks it, and
// keeps streaming: the shrink installs at the next push and the FIFO
// stays exact. A shrink below the live backlog must be refused.
func TestSPSCShrinkMidStream(t *testing.T) {
	q := NewSPSC[int](64)
	next := 0
	for ; next < 40; next++ {
		if err := q.Push(next, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	for ; want < 30; want++ {
		v, _, err := q.Pop()
		if err != nil || v != want {
			t.Fatalf("pop = (%d, %v), want %d", v, err, want)
		}
	}
	if err := q.Resize(8); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("shrink below backlog = %v, want ErrTooSmall", err)
	}
	if err := q.Resize(16); err != nil {
		t.Fatal(err)
	}
	for ; next < 100; next++ {
		if err := q.Push(next, SigNone); err != nil {
			t.Fatal(err)
		}
		v, _, err := q.Pop()
		if err != nil || v != want {
			t.Fatalf("pop = (%d, %v), want %d", v, err, want)
		}
		want++
	}
	if q.Cap() != 16 {
		t.Fatalf("cap = %d, want 16", q.Cap())
	}
	tel := q.Telemetry().Snapshot()
	if tel.Shrinks != 1 {
		t.Fatalf("shrinks = %d, want 1", tel.Shrinks)
	}
	if tel.Pushes != uint64(next) || tel.Pops != uint64(want) {
		t.Fatalf("flow = %d/%d across epochs, want %d/%d", tel.Pushes, tel.Pops, next, want)
	}
}

// TestSPSCResizeChurnUnderLoad streams a few hundred thousand elements
// through a ring that is grown and shrunk continuously from a third
// goroutine — the monitor's worst case. Order, the element count and
// the cross-epoch telemetry must all survive.
func TestSPSCResizeChurnUnderLoad(t *testing.T) {
	const total = 300_000
	q := NewSPSC[int](4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := q.Push(i, SigNone); err != nil {
				t.Errorf("push: %v", err)
				return
			}
		}
		q.Close()
	}()
	go func() { // resizer: grow/shrink cycle while traffic flows
		defer wg.Done()
		caps := []int{8, 256, 16, 1024, 4, 64}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = q.Resize(caps[i%len(caps)]) // ErrTooSmall is fine
			runtime.Gosched()
		}
	}()
	next := 0
	for {
		v, _, err := q.Pop()
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if v != next {
			t.Fatalf("out of order: got %d, want %d", v, next)
		}
		next++
	}
	close(stop)
	wg.Wait()
	if next != total {
		t.Fatalf("received %d, want %d", next, total)
	}
	tel := q.Telemetry().Snapshot()
	if tel.Pushes != total || tel.Pops != total {
		t.Fatalf("flow counters across epochs: pushes=%d pops=%d", tel.Pushes, tel.Pops)
	}
	if tel.Resizes == 0 {
		t.Fatal("churn never installed a resize")
	}
	if tel.Resizes != tel.Grows+tel.Shrinks {
		t.Fatalf("resizes=%d != grows+shrinks=%d", tel.Resizes, tel.Grows+tel.Shrinks)
	}
}

// FuzzSPSCResize runs a bulk/scalar producer, a resizer and a bulk/scalar
// consumer concurrently, with the fuzzer choosing the batch schedule, the
// resize schedule and the pop granularity. The consumer must observe the
// exact FIFO sequence with every signal aligned to its element, across
// every epoch boundary the schedule produces.
func FuzzSPSCResize(f *testing.F) {
	f.Add([]byte{4, 9, 1, 16, 3}, []byte{8, 200, 16, 4, 64}, uint8(3))
	f.Add([]byte{1, 1, 1}, []byte{255, 2, 255, 2}, uint8(1))
	f.Add([]byte{17, 5}, []byte{3, 120, 7}, uint8(12))
	f.Fuzz(func(t *testing.T, batches, resizes []byte, popGrain uint8) {
		if len(batches) == 0 || len(batches) > 64 || len(resizes) > 64 {
			t.Skip()
		}
		const total = 2000
		sigFor := func(v int) Signal {
			if v%5 == 0 {
				return SigUser
			}
			return SigNone
		}
		q := NewSPSC[int](2)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // producer: batch sizes from the fuzzer; 1 = scalar Push
			defer wg.Done()
			defer q.Close()
			next, bi := 0, 0
			for next < total {
				batch := int(batches[bi%len(batches)])%17 + 1
				bi++
				if batch > total-next {
					batch = total - next
				}
				if batch == 1 {
					if err := q.Push(next, sigFor(next)); err != nil {
						t.Errorf("Push: %v", err)
						return
					}
				} else {
					vs := make([]int, batch)
					sigs := make([]Signal, batch)
					for i := range vs {
						vs[i] = next + i
						sigs[i] = sigFor(next + i)
					}
					if err := q.PushN(vs, sigs); err != nil {
						t.Errorf("PushN: %v", err)
						return
					}
				}
				next += batch
			}
		}()
		go func() { // resizer: the monitor stand-in
			defer wg.Done()
			for _, b := range resizes {
				_ = q.Resize(int(b)%300 + 2) // ErrTooSmall is fine
				runtime.Gosched()
			}
		}()
		got := make([]int, 0, total)
		grain := int(popGrain)%13 + 1
		dst := make([]int, grain)
		sigs := make([]Signal, grain)
		for {
			if grain == 1 {
				v, s, err := q.Pop()
				if err != nil {
					break
				}
				if want := sigFor(v); s != want {
					t.Fatalf("signal misaligned: v=%d sig=%v want %v", v, s, want)
				}
				got = append(got, v)
				continue
			}
			n, err := q.PopN(dst, sigs)
			for i := 0; i < n; i++ {
				if want := sigFor(dst[i]); sigs[i] != want {
					t.Fatalf("signal misaligned: v=%d sig=%v want %v", dst[i], sigs[i], want)
				}
			}
			got = append(got, dst[:n]...)
			if err != nil {
				break
			}
		}
		wg.Wait()
		if len(got) != total {
			t.Fatalf("received %d elements, want %d", len(got), total)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("FIFO order broken at %d: got %d", i, v)
			}
		}
		tel := q.Telemetry().Snapshot()
		if tel.Pushes != total || tel.Pops != total {
			t.Fatalf("flow counters: pushes=%d pops=%d", tel.Pushes, tel.Pops)
		}
	})
}

// FuzzSPSCModelResize drives one SPSC from a single goroutine with a
// fuzzer-chosen interleaving of scalar ops, bulk ops and resize
// requests, checking every observation against a plain-slice FIFO
// model. Single-threaded use is legal SPSC use (the same goroutine is
// both endpoints), and it makes every install/seal/follow transition
// deterministic for the fuzzer to reach.
// After every op, Flow and Snapshot must report exactly the model's push,
// pop and shed counts.
// Ops: 0-89 TryPush, 90-179 TryPop, 180-229 Resize, 230-249 DrainTo,
// 250-252 best-effort Push, 253-255 best-effort PushN.
func FuzzSPSCModelResize(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 4, 100, 100, 100, 100, 240})
	f.Add([]byte{10, 181, 10, 10, 10, 10, 10, 10, 10, 10, 229, 150, 235})
	f.Add([]byte{250, 250, 251, 252, 200, 253, 254, 100, 255, 181, 250, 251, 240})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			t.Skip()
		}
		sigFor := func(v int) Signal {
			if v%3 == 0 {
				return SigUser
			}
			return SigNone
		}
		q := NewSPSC[int](2)
		var model []int
		next := 0
		var pushed, shed uint64
		// signalFree advances next past values that carry a signal, which
		// a best-effort push would block on rather than shed.
		signalFree := func() int {
			for sigFor(next) != SigNone {
				next++
			}
			next++
			return next - 1
		}
		for _, op := range ops {
			switch {
			case op < 90:
				ok, err := q.TryPush(next, sigFor(next))
				if err != nil {
					t.Fatalf("push err: %v", err)
				}
				if ok {
					model = append(model, next)
					next++
					pushed++
				} else if q.ResizePending() {
					t.Fatal("TryPush failed with an installable grow pending")
				}
			case op < 180:
				v, s, ok, err := q.TryPop()
				if err != nil {
					t.Fatalf("pop err: %v", err)
				}
				if ok != (len(model) > 0) {
					t.Fatalf("pop ok=%v with model len %d", ok, len(model))
				}
				if ok {
					if v != model[0] || s != sigFor(model[0]) {
						t.Fatalf("pop = (%d,%v), model head (%d,%v)", v, s, model[0], sigFor(model[0]))
					}
					model = model[1:]
				}
			case op < 230:
				newCap := int(op-179) * 2
				err := q.Resize(newCap)
				if newCap < len(model) {
					if !errors.Is(err, ErrTooSmall) {
						t.Fatalf("undersized resize err = %v", err)
					}
				} else if err != nil {
					t.Fatalf("resize err: %v", err)
				}
			case op >= 253:
				vs := make([]int, op-251)
				for i := range vs {
					vs[i] = signalFree()
				}
				dropped := q.Telemetry().Drops()
				q.SetBestEffort(true)
				if err := q.PushN(vs, nil); err != nil {
					t.Fatalf("best-effort PushN err: %v", err)
				}
				q.SetBestEffort(false)
				lost := q.Telemetry().Drops() - dropped
				model = append(model, vs[:uint64(len(vs))-lost]...)
				pushed += uint64(len(vs)) - lost
				shed += lost
			case op >= 250:
				v := signalFree()
				dropped := q.Telemetry().Drops()
				q.SetBestEffort(true)
				if err := q.Push(v, SigNone); err != nil {
					t.Fatalf("best-effort push err: %v", err)
				}
				q.SetBestEffort(false)
				if q.Telemetry().Drops() == dropped {
					model = append(model, v)
					pushed++
				} else {
					shed++
				}
			default:
				k := int(op)%5 + 1
				dst := make([]int, k)
				sigs := make([]Signal, k)
				n, err := q.DrainTo(dst, sigs)
				if err != nil {
					t.Fatalf("DrainTo err: %v", err)
				}
				if n == 0 && len(model) > 0 {
					t.Fatalf("DrainTo drained nothing with model len %d", len(model))
				}
				for i := 0; i < n; i++ {
					if dst[i] != model[i] || sigs[i] != sigFor(model[i]) {
						t.Fatalf("DrainTo[%d] = (%d,%v), model (%d,%v)", i, dst[i], sigs[i], model[i], sigFor(model[i]))
					}
				}
				model = model[n:]
			}
			if q.Len() != len(model) {
				t.Fatalf("len = %d, model %d", q.Len(), len(model))
			}
			checkFlow(t, q.Telemetry(), pushed, pushed-uint64(len(model)), shed)
		}
		// Drain the remainder and re-verify order + signals after close.
		q.Close()
		for _, want := range model {
			v, s, err := q.Pop()
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			if v != want || s != sigFor(want) {
				t.Fatalf("drain = (%d,%v), want (%d,%v)", v, s, want, sigFor(want))
			}
		}
		if _, _, err := q.Pop(); !errors.Is(err, ErrClosed) {
			t.Fatalf("final pop err = %v, want ErrClosed", err)
		}
		checkFlow(t, q.Telemetry(), pushed, pushed, shed)
	})
}

// checkFlow asserts that Flow and Snapshot report exactly the model's
// push, pop and drop counts.
func checkFlow(t *testing.T, tel *Telemetry, pushes, pops, dropped uint64) {
	t.Helper()
	p, c := tel.Flow()
	s := tel.Snapshot()
	if p != pushes || c != pops || s.Pushes != pushes || s.Pops != pops || s.Dropped != dropped {
		t.Fatalf("Flow %d/%d, Snapshot %d/%d dropped %d; model %d/%d dropped %d",
			p, c, s.Pushes, s.Pops, s.Dropped, pushes, pops, dropped)
	}
}
