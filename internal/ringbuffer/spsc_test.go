package ringbuffer

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestSPSCCapacityRounding(t *testing.T) {
	cases := []struct{ in, want int }{{0, 2}, {1, 2}, {2, 2}, {3, 4}, {64, 64}, {65, 128}}
	for _, c := range cases {
		q := NewSPSC[int](c.in)
		if q.Cap() != c.want {
			t.Errorf("NewSPSC(%d).Cap() = %d, want %d", c.in, q.Cap(), c.want)
		}
	}
}

func TestSPSCPushPopOrder(t *testing.T) {
	q := NewSPSC[int](8)
	for i := 0; i < 8; i++ {
		if err := q.Push(i, SigNone); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 8 {
		t.Fatalf("len = %d, want 8", q.Len())
	}
	for i := 0; i < 8; i++ {
		v, _, err := q.Pop()
		if err != nil || v != i {
			t.Fatalf("pop = (%d, %v), want %d", v, err, i)
		}
	}
}

func TestSPSCTryOps(t *testing.T) {
	q := NewSPSC[int](2)
	ok, err := q.TryPush(1, SigEOF)
	if !ok || err != nil {
		t.Fatalf("TryPush = (%v, %v)", ok, err)
	}
	if ok, _ = q.TryPush(2, SigNone); !ok {
		t.Fatal("second TryPush should fit")
	}
	if ok, _ = q.TryPush(3, SigNone); ok {
		t.Fatal("TryPush on full queue should fail")
	}
	v, s, ok, err := q.TryPop()
	if !ok || err != nil || v != 1 || s != SigEOF {
		t.Fatalf("TryPop = (%d, %v, %v, %v)", v, s, ok, err)
	}
	_, _, _, _ = q.TryPop()
	if _, _, ok, _ = q.TryPop(); ok {
		t.Fatal("TryPop on empty queue should miss")
	}
}

func TestSPSCCloseSemantics(t *testing.T) {
	q := NewSPSC[int](4)
	if err := q.Push(1, SigNone); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if !q.Closed() {
		t.Fatal("should report closed")
	}
	if _, err := q.TryPush(2, SigNone); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryPush closed = %v, want ErrClosed", err)
	}
	if err := q.Push(2, SigNone); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push closed = %v, want ErrClosed", err)
	}
	// Drain buffered then ErrClosed.
	if v, _, err := q.Pop(); err != nil || v != 1 {
		t.Fatalf("pop = (%d, %v)", v, err)
	}
	if _, _, err := q.Pop(); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained pop = %v, want ErrClosed", err)
	}
}

func TestSPSCBlockedProducerUnblocks(t *testing.T) {
	q := NewSPSC[int](2)
	if err := q.Push(0, SigNone); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(1, SigNone); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- q.Push(2, SigNone) }()
	deadline := time.Now().Add(2 * time.Second)
	for q.WriterBlockedFor() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never blocked")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if _, _, err := q.Pop(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestSPSCReaderStarvationVisible(t *testing.T) {
	q := NewSPSC[int](2)
	got := make(chan int, 1)
	go func() {
		v, _, err := q.Pop()
		if err != nil {
			got <- -1
			return
		}
		got <- v
	}()
	deadline := time.Now().Add(2 * time.Second)
	for q.ReaderStarvedFor() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("consumer never starved")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if err := q.Push(9, SigNone); err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != 9 {
		t.Fatalf("pop = %d, want 9", v)
	}
}

func TestSPSCResizeContract(t *testing.T) {
	q := NewSPSC[int](4)
	if err := q.Push(1, SigNone); err != nil {
		t.Fatal(err)
	}
	if err := q.Resize(0); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("shrink below len = %v, want ErrTooSmall", err)
	}
	if err := q.Resize(1024); err != nil {
		t.Fatalf("grow request = %v, want nil", err)
	}
	if !q.ResizePending() {
		t.Fatal("grow request should be pending until the producer's next push")
	}
	if q.Cap() != 4 {
		t.Fatalf("cap = %d before install; the swap must wait for the producer", q.Cap())
	}
	// The next push installs the epoch; capacity changes then.
	if err := q.Push(2, SigNone); err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 1024 {
		t.Fatalf("cap = %d after install, want 1024", q.Cap())
	}
	if q.ResizePending() {
		t.Fatal("request should be consumed by the install")
	}
	tel := q.Telemetry().Snapshot()
	if tel.Resizes != 1 || tel.Grows != 1 {
		t.Fatalf("telemetry resizes=%d grows=%d, want 1/1", tel.Resizes, tel.Grows)
	}
	// FIFO across the boundary: element 1 lives in the old epoch,
	// element 2 in the new one.
	for want := 1; want <= 2; want++ {
		v, _, err := q.Pop()
		if err != nil || v != want {
			t.Fatalf("pop = (%d, %v), want %d", v, err, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after drain", q.Len())
	}
	// Resize to the current capacity is a nil no-op.
	if err := q.Resize(1024); err != nil || q.ResizePending() {
		t.Fatalf("same-cap resize = %v pending=%v, want nil no-op", err, q.ResizePending())
	}
	if q.PendingDemand() != 0 {
		t.Fatal("SPSC PendingDemand must be 0")
	}
	if q.Kind() != "spsc" {
		t.Fatalf("kind = %q", q.Kind())
	}
}

func TestSPSCConcurrentThroughput(t *testing.T) {
	const total = 200_000
	q := NewSPSC[int](256)
	var wg sync.WaitGroup
	wg.Add(1)
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
	wg.Wait()
	if next != total {
		t.Fatalf("received %d, want %d", next, total)
	}
	tel := q.Telemetry().Snapshot()
	if tel.Pushes != total || tel.Pops != total {
		t.Fatalf("telemetry = %+v", tel)
	}
}

func TestSPSCPropertyFIFO(t *testing.T) {
	f := func(vals []int16, capSeed uint8) bool {
		q := NewSPSC[int16](int(capSeed%32) + 1)
		go func() {
			for _, v := range vals {
				if err := q.Push(v, SigNone); err != nil {
					return
				}
			}
			q.Close()
		}()
		for i := 0; ; i++ {
			v, _, err := q.Pop()
			if errors.Is(err, ErrClosed) {
				return i == len(vals)
			}
			if err != nil || i >= len(vals) || v != vals[i] {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSPSCLayout guards the cache-line split: the producer-written,
// consumer-written and read-mostly fields, and the telemetry block, each
// sit at least 64 bytes from the next region, so no cache line holds
// fields of two regions wherever the allocator places the ring.
func TestSPSCLayout(t *testing.T) {
	var q SPSC[int]
	type field struct {
		name      string
		off, size uintptr
	}
	regions := [][]field{
		{
			{"tail", unsafe.Offsetof(q.tail), unsafe.Sizeof(q.tail)},
			{"headCache", unsafe.Offsetof(q.headCache), unsafe.Sizeof(q.headCache)},
			{"prod", unsafe.Offsetof(q.prod), unsafe.Sizeof(q.prod)},
			{"wviewOut", unsafe.Offsetof(q.wviewOut), unsafe.Sizeof(q.wviewOut)},
			{"wviewN", unsafe.Offsetof(q.wviewN), unsafe.Sizeof(q.wviewN)},
			{"wviewT", unsafe.Offsetof(q.wviewT), unsafe.Sizeof(q.wviewT)},
			{"occ", unsafe.Offsetof(q.occ), unsafe.Sizeof(q.occ)},
			{"writerBlockSince", unsafe.Offsetof(q.writerBlockSince), unsafe.Sizeof(q.writerBlockSince)},
			{"wviewSince", unsafe.Offsetof(q.wviewSince), unsafe.Sizeof(q.wviewSince)},
		},
		{
			{"head", unsafe.Offsetof(q.head), unsafe.Sizeof(q.head)},
			{"tailCache", unsafe.Offsetof(q.tailCache), unsafe.Sizeof(q.tailCache)},
			{"cons", unsafe.Offsetof(q.cons), unsafe.Sizeof(q.cons)},
			{"viewOut", unsafe.Offsetof(q.viewOut), unsafe.Sizeof(q.viewOut)},
			{"viewN", unsafe.Offsetof(q.viewN), unsafe.Sizeof(q.viewN)},
			{"viewH", unsafe.Offsetof(q.viewH), unsafe.Sizeof(q.viewH)},
			{"readerBlockSince", unsafe.Offsetof(q.readerBlockSince), unsafe.Sizeof(q.readerBlockSince)},
			{"viewSince", unsafe.Offsetof(q.viewSince), unsafe.Sizeof(q.viewSince)},
		},
		{
			{"active", unsafe.Offsetof(q.active), unsafe.Sizeof(q.active)},
			{"pending", unsafe.Offsetof(q.pending), unsafe.Sizeof(q.pending)},
			{"closed", unsafe.Offsetof(q.closed), unsafe.Sizeof(q.closed)},
			{"bestEffort", unsafe.Offsetof(q.bestEffort), unsafe.Sizeof(q.bestEffort)},
			{"wake", unsafe.Offsetof(q.wake), unsafe.Sizeof(q.wake)},
		},
		{
			{"tel", unsafe.Offsetof(q.tel), unsafe.Sizeof(q.tel)},
		},
	}
	const line = 64
	end := uintptr(0) // the leading pad keeps the first region off whatever precedes the ring
	for r, fields := range regions {
		lo, hi := ^uintptr(0), uintptr(0)
		for _, f := range fields {
			lo = min(lo, f.off)
			hi = max(hi, f.off+f.size)
		}
		if lo < end+line {
			t.Errorf("region %d (%s...) starts at %d, within %d bytes of the previous region's end %d", r, fields[0].name, lo, line, end)
		}
		end = hi
	}
	if unsafe.Sizeof(q) != end {
		t.Errorf("fields past the telemetry block: size %d, telemetry ends at %d", unsafe.Sizeof(q), end)
	}
}

// TestSPSCFlowConcurrent races an observer against a producer and a
// consumer that mix scalar, bulk and view operations across epoch swaps:
// every concurrent Flow or Snapshot read must see Pops <= Pushes, and at
// quiescence Pushes == Pops + Len exactly. Run it under -race.
func TestSPSCFlowConcurrent(t *testing.T) {
	q := NewSPSC[int](4)
	raceFlow(t, q, func() bool { return !q.ResizePending() })
}

// TestRingFlowConcurrent is TestSPSCFlowConcurrent on the mutex ring,
// whose flow counts are plain fields read under its lock.
func TestRingFlowConcurrent(t *testing.T) {
	raceFlow(t, NewRing[int](4), func() bool { return true })
}

// flowRacer is the operation set raceFlow drives on either ring kind.
type flowRacer interface {
	Push(int, Signal) error
	PushN([]int, []Signal) error
	AcquireWriteView(int) (WriteView[int], error)
	ReleaseWriteView(int)
	Pop() (int, Signal, error)
	PopN([]int, []Signal) (int, error)
	AcquireView(int) (View[int], error)
	ReleaseView(int)
	Resize(int) error
	Len() int
	Telemetry() *Telemetry
}

// raceFlow runs the producer, consumer and observer of the flow tests;
// resizeIdle reports whether the ring can take another Resize now.
func raceFlow(t *testing.T, q flowRacer, resizeIdle func() bool) {
	t.Helper()
	const total, backlog = 20_000, 2 // the backlog fits the smallest ring
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		nextResize := 500
		for i := 0; i < total; {
			switch i % 3 {
			case 0:
				if err := q.Push(i, SigNone); err != nil {
					t.Error(err)
					return
				}
				i++
			case 1:
				k := min(5, total-i)
				if err := q.PushN(make([]int, k), nil); err != nil {
					t.Error(err)
					return
				}
				i += k
			default:
				wv, err := q.AcquireWriteView(3)
				if err != nil {
					t.Error(err)
					return
				}
				k := min(wv.Len(), total-i)
				q.ReleaseWriteView(k)
				i += k
			}
			if i >= nextResize && resizeIdle() {
				_ = q.Resize(2 << (i / 500 % 5))
				nextResize += 500
			}
		}
	}()
	go func() { // observer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if pushes, pops := q.Telemetry().Flow(); pops > pushes {
				t.Errorf("Flow pops %d > pushes %d", pops, pushes)
				return
			}
			if s := q.Telemetry().Snapshot(); s.Pops > s.Pushes {
				t.Errorf("Snapshot pops %d > pushes %d", s.Pops, s.Pushes)
				return
			}
			runtime.Gosched() // leave the endpoints a core at GOMAXPROCS=1
		}
	}()
	dst := make([]int, 7)
	for popped, k := 0, 0; popped < total-backlog; k++ { // consumer
		switch k % 3 {
		case 0:
			if _, _, err := q.Pop(); err != nil {
				t.Fatal(err)
			}
			popped++
		case 1:
			n, err := q.PopN(dst[:min(len(dst), total-backlog-popped)], nil)
			if err != nil {
				t.Fatal(err)
			}
			popped += n
		default:
			v, err := q.AcquireView(min(4, total-backlog-popped))
			if err != nil {
				t.Fatal(err)
			}
			q.ReleaseView(v.Len())
			popped += v.Len()
		}
	}
	for deadline := time.Now().Add(10 * time.Second); q.Len() < backlog; { // let the producer finish
		if time.Now().After(deadline) {
			t.Fatalf("producer stalled with %d buffered", q.Len())
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	pushes, pops := q.Telemetry().Flow()
	snap := q.Telemetry().Snapshot()
	if pushes != total || pops != total-backlog || snap.Pushes != pushes || snap.Pops != pops {
		t.Fatalf("flow %d/%d, snapshot %d/%d, want %d/%d", pushes, pops, snap.Pushes, snap.Pops, total, total-backlog)
	}
	if pushes != pops+uint64(q.Len()) {
		t.Fatalf("pushes %d != pops %d + len %d at quiescence", pushes, pops, q.Len())
	}
	if snap.Resizes == 0 {
		t.Fatal("no resize installed during the run")
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := NewRing[int](1024)
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			_ = r.Push(i, SigNone)
		}
		r.Close()
	}()
	for {
		_, _, err := r.Pop()
		if err != nil {
			break
		}
	}
}

func BenchmarkSPSCPushPop(b *testing.B) {
	q := NewSPSC[int](1024)
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			_ = q.Push(i, SigNone)
		}
		q.Close()
	}()
	for {
		_, _, err := q.Pop()
		if err != nil {
			break
		}
	}
}

func BenchmarkGoChannelPushPop(b *testing.B) {
	ch := make(chan int, 1024)
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			ch <- i
		}
		close(ch)
	}()
	for range ch {
	}
}
