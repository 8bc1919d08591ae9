package oar

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raftlib/internal/fault"
	"raftlib/kernels"
	"raftlib/raft"
)

// collectSink gathers int64 elements in arrival order with a live counter,
// so tests can both synchronize on progress and verify exactly-once
// delivery afterwards.
type collectSink struct {
	mu    sync.Mutex
	got   []int64
	count atomic.Int64
}

func (c *collectSink) kernel() raft.Kernel {
	return raft.NewLambda[int64](1, 0, func(k *raft.LambdaKernel) raft.Status {
		v, err := raft.Pop[int64](k.In("0"))
		if err != nil {
			return raft.Stop
		}
		c.mu.Lock()
		c.got = append(c.got, v)
		c.mu.Unlock()
		c.count.Add(1)
		return raft.Proceed
	})
}

func (c *collectSink) values() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int64, len(c.got))
	copy(out, c.got)
	return out
}

func (c *collectSink) waitFor(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.count.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("sink stuck at %d/%d elements", c.count.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// runBridge drives n generated elements through a bridge under the given
// options and returns the collected output plus both Exe errors.
func runBridge(t *testing.T, node *Node, stream string, n int64, opts ...BridgeOption) ([]int64, error, error) {
	t.Helper()
	send, recv, err := Bridge[int64](node, stream, opts...)
	if err != nil {
		t.Fatal(err)
	}
	producer := raft.NewMap()
	if _, err := producer.Link(kernels.NewGenerate(n, func(i int64) int64 { return i }), send); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink.kernel()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = producer.Exe() }()
	go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()
	wg.Wait()
	return sink.values(), errs[0], errs[1]
}

// requireExactSequence asserts lossless, duplicate-free, in-order arrival.
func requireExactSequence(t *testing.T, got []int64, n int64) {
	t.Helper()
	if int64(len(got)) != n {
		t.Fatalf("received %d elements, want %d (healing must be exactly-once)", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestBridgeHealsSeveredConnection(t *testing.T) {
	node := newTestNode(t, "sever")
	const n = 5000
	inj := fault.New()
	inj.SeverBridge("cut", 2)
	inj.SeverBridge("cut", 6)
	got, perr, cerr := runBridge(t, node, "cut", n, WithBridgeFault(inj),
		WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if perr != nil || cerr != nil {
		t.Fatalf("Exe errors: producer=%v consumer=%v", perr, cerr)
	}
	requireExactSequence(t, got, n)
	if inj.Fired("sever") != 2 {
		t.Fatalf("severs fired = %d, want 2", inj.Fired("sever"))
	}
}

func TestBridgeHealsCorruptedFrame(t *testing.T) {
	node := newTestNode(t, "corrupt")
	const n = 5000
	inj := fault.New()
	inj.CorruptBridge("garble", 3)
	got, perr, cerr := runBridge(t, node, "garble", n, WithBridgeFault(inj),
		WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if perr != nil || cerr != nil {
		t.Fatalf("Exe errors: producer=%v consumer=%v", perr, cerr)
	}
	requireExactSequence(t, got, n)
	if inj.Fired("corrupt") != 1 {
		t.Fatalf("corruptions fired = %d, want 1", inj.Fired("corrupt"))
	}
}

func TestBridgeSurvivesInjectedDelay(t *testing.T) {
	node := newTestNode(t, "slow")
	const n = 2000
	inj := fault.New()
	inj.DelayBridge("lag", 3, time.Millisecond)
	got, perr, cerr := runBridge(t, node, "lag", n, WithBridgeFault(inj))
	if perr != nil || cerr != nil {
		t.Fatalf("Exe errors: producer=%v consumer=%v", perr, cerr)
	}
	requireExactSequence(t, got, n)
	if inj.Fired("delay") == 0 {
		t.Fatal("no delays fired")
	}
}

func TestBridgeReportsRecoveryStats(t *testing.T) {
	node := newTestNode(t, "stats")
	send, recv, err := Bridge[int64](node, "counted",
		WithBridgeFault(func() *fault.Injector {
			inj := fault.New()
			inj.SeverBridge("counted", 2)
			return inj
		}()),
		WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	producer := raft.NewMap()
	if _, err := producer.Link(kernels.NewGenerate(1000, func(i int64) int64 { return i }), send); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink.kernel()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, _ = producer.Exe() }()
	go func() { defer wg.Done(); _, _ = consumer.Exe() }()
	wg.Wait()

	sr, ok := send.BridgeStats()
	if !ok {
		t.Fatal("sender stats not available after Exe")
	}
	if sr.Stream != "counted" || sr.Reconnects < 1 {
		t.Fatalf("sender stats = %+v, want >=1 reconnect", sr)
	}
	if sr.Downtime <= 0 {
		t.Fatalf("sender downtime = %v, want > 0", sr.Downtime)
	}
	rr, ok := recv.BridgeStats()
	if !ok {
		t.Fatal("receiver stats not available after Exe")
	}
	if rr.Reconnects < 1 {
		t.Fatalf("receiver stats = %+v, want >=1 reconnect", rr)
	}
}

// TestReceiverCountsConnectionReplacedBeforeAdoption forces the order a
// fast redial can produce: the sender's first connection reaches the node
// and is replaced by its redial before the receiver's Init adopts either.
// The node hands over the newest connection and closes the stale one; the
// replaced connection was lost to a failure, so the receiver must still
// report one reconnect, as the sender does.
func TestReceiverCountsConnectionReplacedBeforeAdoption(t *testing.T) {
	node := newTestNode(t, "replace")
	recv, err := NewReceiver[int64](node, "early")
	if err != nil {
		t.Fatal(err)
	}
	dial := func(want uint64) net.Conn { return dialStream(t, node, recv, "early", want) }
	first := dial(1)
	dial(2)
	// The node closes the replaced connection before it hands over the
	// new one, so EOF here proves the swap finished before Init runs.
	_ = first.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := first.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("replaced connection read err = %v, want EOF (closed by the node)", err)
	}
	if err := recv.Init(); err != nil {
		t.Fatal(err)
	}
	defer recv.Finalize()
	if rr, _ := recv.BridgeStats(); rr.Reconnects != 1 {
		t.Fatalf("receiver stats = %+v, want 1 reconnect", rr)
	}
}

// TestReceiverCountsRedialWhoseReplayFailed pins the receiver's side of
// BridgeReport.Reconnects: every connection the sender opens to the stream
// after the first counts, including a redial that broke during its replay
// before a frame went through. The sender counts only the redial whose
// replay succeeded, so here the receiver reads 2 where the sender would
// read 1.
func TestReceiverCountsRedialWhoseReplayFailed(t *testing.T) {
	node := newTestNode(t, "replayfail")
	recv, err := NewReceiver[int64](node, "flaky")
	if err != nil {
		t.Fatal(err)
	}
	dial := func(want uint64) net.Conn { return dialStream(t, node, recv, "flaky", want) }
	dial(1)
	if err := recv.Init(); err != nil {
		t.Fatal(err)
	}
	defer recv.Finalize()
	dial(2).Close() // the redial whose replay failed
	dial(3)
	if rr, _ := recv.BridgeStats(); rr.Reconnects != 2 {
		t.Fatalf("receiver stats = %+v, want 2 reconnects", rr)
	}
}

// dialStream opens a raw connection to the named stream endpoint, as a
// sender's dial does, and waits until the node has counted it as the
// want-th arrival.
func dialStream(t *testing.T, node *Node, recv *Receiver[int64], stream string, want uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := fmt.Fprintf(conn, "%s %s\n", hdrStream, stream); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for recv.slot.arrivals.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("connection %d never reached the stream endpoint", want)
		}
		time.Sleep(time.Millisecond)
	}
	return conn
}

func TestCompressedBridgeHeals(t *testing.T) {
	node := newTestNode(t, "zip")
	const n = 3000
	inj := fault.New()
	inj.SeverBridge("packed", 2)
	send, recv, err := BridgeCompressed[int64](node, "packed", WithBridgeFault(inj),
		WithReconnectBackoff(time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	producer := raft.NewMap()
	if _, err := producer.Link(kernels.NewGenerate(n, func(i int64) int64 { return i }), send); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink.kernel()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = producer.Exe() }()
	go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("Exe errors: producer=%v consumer=%v", errs[0], errs[1])
	}
	requireExactSequence(t, sink.values(), n)
	if inj.Fired("sever") != 1 {
		t.Fatalf("severs fired = %d, want 1", inj.Fired("sever"))
	}
}

func TestBridgeHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	node := newTestNode(t, "idle")
	send, recv, err := Bridge[int64](node, "quiet",
		WithHeartbeat(25*time.Millisecond), WithPeerTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	feed := make(chan int64, 2)
	producer := raft.NewMap()
	src := raft.NewLambda[int64](0, 1, func(k *raft.LambdaKernel) raft.Status {
		v, ok := <-feed
		if !ok {
			return raft.Stop
		}
		if err := raft.Push(k.Out("0"), v); err != nil {
			return raft.Stop
		}
		return raft.Proceed
	})
	if _, err := producer.Link(src, send); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink.kernel()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = producer.Exe() }()
	go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()

	feed <- 0
	sink.waitFor(t, 1)
	// Idle far longer than the receiver's liveness deadline: heartbeats
	// must keep the connection demonstrably alive, with no reconnect churn.
	time.Sleep(400 * time.Millisecond)
	feed <- 1
	close(feed)
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("Exe errors: producer=%v consumer=%v", errs[0], errs[1])
	}
	requireExactSequence(t, sink.values(), 2)
	if rr, _ := recv.BridgeStats(); rr.Reconnects != 0 {
		t.Fatalf("receiver reconnects = %d, want 0 (heartbeats should prevent churn)", rr.Reconnects)
	}
}

// runDegradation drives a bridge into a permanent outage: three elements
// flow one frame each, then the node is shut down and a sever is injected,
// so reconnection is impossible and the policy must fire.
func runDegradation(t *testing.T, policy Policy) (sendErr, recvErr error, send *Sender[int64], delivered []int64) {
	t.Helper()
	node, err := NewNode("doomed-"+fmt.Sprint(policy), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	inj := fault.New()
	inj.SeverBridge("fragile", 4)
	var recv *Receiver[int64]
	send, recv, err = Bridge[int64](node, "fragile",
		WithBridgeFault(inj),
		WithPolicy(policy),
		WithMaxDowntime(150*time.Millisecond),
		WithReconnectBackoff(time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	feed := make(chan int64, 16)
	producer := raft.NewMap()
	src := raft.NewLambda[int64](0, 1, func(k *raft.LambdaKernel) raft.Status {
		v, ok := <-feed
		if !ok {
			return raft.Stop
		}
		if err := raft.Push(k.Out("0"), v); err != nil {
			return raft.Stop
		}
		return raft.Proceed
	})
	if _, err := producer.Link(src, send); err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	consumer := raft.NewMap()
	if _, err := consumer.Link(recv, sink.kernel()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[0] = producer.Exe() }()
	go func() { defer wg.Done(); _, errs[1] = consumer.Exe() }()

	// One frame per element: wait for each arrival before feeding the next.
	for i := int64(0); i < 3; i++ {
		feed <- i
		sink.waitFor(t, i+1)
	}
	// Take the listener down, then feed the frame the sever rule hits:
	// the sender cannot reconnect and the outage becomes permanent.
	node.Close()
	for i := int64(3); i < 10; i++ {
		feed <- i
	}
	close(feed)
	wg.Wait()
	return errs[0], errs[1], send, sink.values()
}

func TestBridgeFailPolicyRaisesBridgeDown(t *testing.T) {
	sendErr, recvErr, _, delivered := runDegradation(t, Fail)
	if !errors.Is(sendErr, raft.ErrBridgeDown) {
		t.Errorf("producer err %v does not wrap ErrBridgeDown", sendErr)
	}
	if !errors.Is(recvErr, raft.ErrBridgeDown) {
		t.Errorf("consumer err %v does not wrap ErrBridgeDown", recvErr)
	}
	requireExactSequence(t, delivered, 3) // pre-outage traffic was delivered
}

func TestBridgeDropPolicyDegradesGracefully(t *testing.T) {
	sendErr, recvErr, send, delivered := runDegradation(t, Drop)
	if sendErr != nil {
		t.Errorf("producer err = %v, want nil under Drop policy", sendErr)
	}
	if recvErr != nil {
		t.Errorf("consumer err = %v, want nil under Drop policy", recvErr)
	}
	requireExactSequence(t, delivered, 3)
	sr, _ := send.BridgeStats()
	if sr.Dropped == 0 {
		t.Fatalf("sender stats = %+v, want dropped > 0", sr)
	}
}

func TestTransientClassification(t *testing.T) {
	if !IsTransient(fmt.Errorf("wrap: %w", ErrPeerGone)) {
		t.Error("wrapped ErrPeerGone not classified transient")
	}
	if IsTransient(fmt.Errorf("wrap: %w", raft.ErrBridgeDown)) {
		t.Error("ErrBridgeDown must be permanent, not transient")
	}
}
