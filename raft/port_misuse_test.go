package raft

import (
	"errors"
	"strings"
	"testing"
)

// mustPanic asserts fn panics with a message containing want. API-misuse
// panics carry error values (wrapping the raft sentinel errors) so that
// recover-based supervision can classify them; plain string panics are also
// accepted.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		var msg string
		switch v := r.(type) {
		case string:
			msg = v
		case error:
			msg = v.Error()
		default:
			t.Fatalf("panic value %v (%T), want string or error", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	fn()
}

func TestPortAccessBeforeExePanics(t *testing.T) {
	k := newSum()
	mustPanic(t, "before Map.Exe", func() { _, _ = Pop[int64](k.In("input_a")) })
}

func TestUnknownPortPanics(t *testing.T) {
	k := newSum()
	mustPanic(t, "no input port", func() { k.In("nope") })
	mustPanic(t, "no output port", func() { k.Out("nope") })
}

func TestDuplicatePortPanics(t *testing.T) {
	k := newSum()
	mustPanic(t, "twice", func() { AddInput[int64](k, "input_a") })
}

func TestWrongElementTypePanics(t *testing.T) {
	// Run a tiny app where the kernel intentionally uses the wrong type
	// parameter; the resulting panic is surfaced by Exe as an error that
	// names the port and the bad type.
	m := NewMap()
	bad := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
		_, _ = Pop[string](k.In("0")) // wrong T
		return Stop
	})
	sink := newCollect()
	if _, err := m.Link(newGen(5), bad); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(bad, sink); err != nil {
		t.Fatal(err)
	}
	_, err := m.Exe()
	if err == nil || !strings.Contains(err.Error(), "accessed with element type") {
		t.Fatalf("err = %v", err)
	}
}

func TestWindowAccessOnLockFreeQueueSurfacesError(t *testing.T) {
	m := NewMap()
	windowed := NewLambdaIO[int64, int64](1, 1, func(k *LambdaKernel) Status {
		_, _ = PeekRange[int64](k.In("0"), 4) // unsupported on SPSC
		return Stop
	})
	sink := newCollect()
	if _, err := m.Link(newGen(10), windowed); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Link(windowed, sink); err != nil {
		t.Fatal(err)
	}
	_, err := m.Exe(WithLockFreeQueues())
	if err == nil || !strings.Contains(err.Error(), "dynamic queues") {
		t.Fatalf("err = %v", err)
	}
}

func TestPortIntrospection(t *testing.T) {
	k := newSum()
	p := k.In("input_a")
	if p.Name() != "input_a" || p.Dir() != In || p.Type().Kind().String() != "int64" {
		t.Fatalf("port introspection: %s %s %s", p.Name(), p.Dir(), p.Type())
	}
	if p.Bound() {
		t.Fatal("unlinked port reports bound")
	}
	if got := k.Out("sum").Dir(); got != Out {
		t.Fatalf("dir = %v", got)
	}
	if In.String() != "in" || Out.String() != "out" {
		t.Fatal("direction strings")
	}
	if len(k.InNames()) != 2 || len(k.OutNames()) != 1 {
		t.Fatal("port name lists")
	}
	if s := p.String(); !strings.Contains(s, "input_a") {
		t.Fatalf("port string = %q", s)
	}
}

func TestSendAsyncOnUnboundPortPanics(t *testing.T) {
	k := newSum()
	mustPanic(t, "SendAsync on unbound port", func() { k.Out("sum").SendAsync(SigUser) })
}

func TestSplitMergeWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSplit(0) must panic")
		}
	}()
	NewSplit[int](0, RoundRobin)
}

func TestMergeWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMerge(0) must panic")
		}
	}()
	NewMerge[int](0)
}

func TestSplitPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastUtilized.String() != "least-utilized" {
		t.Fatal("policy strings")
	}
}

// ringKinds are the two built-in queue kinds the typed accessors resolve.
var ringKinds = []string{"mutex", "spsc"}

// recoverSentinel runs fn and reports whether it panicked with an error
// wrapping want.
func recoverSentinel(fn func(), want error) (ok bool, got any) {
	defer func() {
		got = recover()
		err, isErr := got.(error)
		ok = isErr && errors.Is(err, want)
	}()
	fn()
	return false, nil
}

// typedAccessors calls every element-typed port accessor once with element
// type T. The calls are only used where they panic before touching the
// queue, so their arguments need not make sense.
func typedAccessors[T any]() map[string]func(*Port) {
	var v T
	return map[string]func(*Port){
		"Pop":                 func(p *Port) { _, _ = Pop[T](p) },
		"PopSig":              func(p *Port) { _, _, _ = PopSig[T](p) },
		"TryPop":              func(p *Port) { _, _, _ = TryPop[T](p) },
		"Push":                func(p *Port) { _ = Push(p, v) },
		"PushSig":             func(p *Port) { _ = PushSig(p, v, SigUser) },
		"TryPush":             func(p *Port) { _, _ = TryPush(p, v) },
		"PushBatch":           func(p *Port) { _ = PushBatch(p, []T{v}, SigNone) },
		"PushN":               func(p *Port) { _ = PushN(p, []T{v}) },
		"PushNSig":            func(p *Port) { _ = PushNSig(p, []T{v}, nil) },
		"PopN":                func(p *Port) { _, _ = PopN(p, make([]T, 1)) },
		"PopNSig":             func(p *Port) { _, _ = PopNSig(p, make([]T, 1), make([]Signal, 1)) },
		"DrainTo":             func(p *Port) { _, _ = DrainTo(p, make([]T, 1)) },
		"Peek":                func(p *Port) { _, _ = Peek[T](p, 0) },
		"PeekRange":           func(p *Port) { _, _ = PeekRange[T](p, 1) },
		"PeekRangeSig":        func(p *Port) { _, _, _ = PeekRangeSig[T](p, 1) },
		"Recycle":             func(p *Port) { Recycle[T](p, 1) },
		"Allocate":            func(p *Port) { _ = Allocate[T](p).Send() },
		"PopView":             func(p *Port) { _, _ = PopView[T](p, 1) },
		"TryPopView":          func(p *Port) { _, _ = TryPopView[T](p, 1) },
		"ReleaseView":         func(p *Port) { ReleaseView[T](p, 0) },
		"AcquireWriteView":    func(p *Port) { _, _ = AcquireWriteView[T](p, 1) },
		"TryAcquireWriteView": func(p *Port) { _, _ = TryAcquireWriteView[T](p, 1) },
		"ReleaseWriteView":    func(p *Port) { ReleaseWriteView[T](p, 0) },
		"HasViews":            func(p *Port) { _ = HasViews[T](p) },
		"HasWriteViews":       func(p *Port) { _ = HasWriteViews[T](p) },
	}
}

// TestTypedAccessorMisuseBothRingKinds runs every typed accessor with the
// wrong element type on a bound port of each ring kind (ErrTypeMismatch)
// and on an unbound port (ErrPortUnbound): the concrete fast path must
// leave both misuse panics intact. HasViews and HasWriteViews answer false
// for a wrong type instead of panicking.
func TestTypedAccessorMisuseBothRingKinds(t *testing.T) {
	for _, kind := range ringKinds {
		p := boundPort[int64](kind, 16)
		for name, call := range typedAccessors[string]() {
			if name == "HasViews" || name == "HasWriteViews" {
				continue
			}
			if ok, got := recoverSentinel(func() { call(p) }, ErrTypeMismatch); !ok {
				t.Errorf("%s/%s with wrong type: panic %v, want ErrTypeMismatch", kind, name, got)
			}
		}
		if HasViews[string](p) || HasWriteViews[string](p) {
			t.Errorf("%s: view support reported for the wrong element type", kind)
		}
	}
	for name, call := range typedAccessors[int64]() {
		p := newPort[int64]("0", Out)
		if ok, got := recoverSentinel(func() { call(p) }, ErrPortUnbound); !ok {
			t.Errorf("%s before Exe: panic %v, want ErrPortUnbound", name, got)
		}
	}
}

// TestTypedAccessorsBothRingKinds drives every typed accessor with the
// right element type through a port bound to each ring kind and checks
// the values and signals come back in FIFO order. The window accessors
// (Peek*, Recycle, PushBatch) need the mutex ring and must refuse the
// lock-free one with ErrTypeMismatch.
func TestTypedAccessorsBothRingKinds(t *testing.T) {
	for _, kind := range ringKinds {
		p := boundPort[int64](kind, 64)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
		}
		expect := func(what string, got, want int64) {
			t.Helper()
			if got != want {
				t.Fatalf("%s: %s = %d, want %d", kind, what, got, want)
			}
		}
		if !HasViews[int64](p) || !HasWriteViews[int64](p) {
			t.Fatalf("%s: built-in ring reports no view support", kind)
		}
		must(Push(p, int64(1)))
		must(PushSig(p, int64(2), SigUser))
		if ok, err := TryPush(p, int64(3)); !ok || err != nil {
			t.Fatalf("%s: TryPush = %v, %v", kind, ok, err)
		}
		a := Allocate[int64](p)
		a.Val = 4
		must(a.Send())
		must(PushN(p, []int64{5, 6}))
		must(PushNSig(p, []int64{7, 8}, []Signal{SigNone, SigUser}))
		wv, err := AcquireWriteView[int64](p, 2)
		must(err)
		wv.SetAt(0, 9, SigNone)
		wv.SetAt(1, 10, SigNone)
		ReleaseWriteView[int64](p, 2)
		wv, err = TryAcquireWriteView[int64](p, 1)
		must(err)
		wv.SetAt(0, 11, SigNone)
		ReleaseWriteView[int64](p, 1)

		v, err := Pop[int64](p)
		must(err)
		expect("Pop", v, 1)
		v, s, err := PopSig[int64](p)
		must(err)
		if expect("PopSig", v, 2); s != SigUser {
			t.Fatalf("%s: PopSig signal = %v", kind, s)
		}
		v, ok, err := TryPop[int64](p)
		if must(err); !ok {
			t.Fatalf("%s: TryPop found nothing", kind)
		}
		expect("TryPop", v, 3)
		buf := make([]int64, 2)
		n, err := PopN(p, buf[:1])
		must(err)
		expect("PopN", int64(n), 1)
		expect("PopN value", buf[0], 4)
		sigs := make([]Signal, 2)
		n, err = PopNSig(p, buf, sigs)
		must(err)
		expect("PopNSig", int64(n), 2)
		expect("PopNSig values", buf[0]*10+buf[1], 56)
		n, err = DrainTo(p, buf)
		must(err)
		expect("DrainTo", int64(n), 2)
		if buf[0] != 7 || buf[1] != 8 {
			t.Fatalf("%s: DrainTo = %v", kind, buf)
		}
		view, err := PopView[int64](p, 1)
		must(err)
		expect("PopView", view.At(0), 9)
		ReleaseView[int64](p, 1)
		view, err = TryPopView[int64](p, 2)
		must(err)
		if view.Len() != 2 || view.At(0) != 10 || view.At(1) != 11 {
			t.Fatalf("%s: TryPopView = %+v", kind, view)
		}
		ReleaseView[int64](p, 2)

		if kind == "spsc" {
			if ok, got := recoverSentinel(func() { _, _ = Peek[int64](p, 0) }, ErrTypeMismatch); !ok {
				t.Fatalf("spsc: Peek panic %v, want ErrTypeMismatch", got)
			}
			continue
		}
		must(PushBatch(p, []int64{12, 13, 14}, SigNone))
		v, err = Peek[int64](p, 1)
		must(err)
		expect("Peek", v, 13)
		w, err := PeekRange[int64](p, 2)
		must(err)
		expect("PeekRange", w[0]*100+w[1], 1213)
		Recycle[int64](p, 2)
		w, _, err = PeekRangeSig[int64](p, 1)
		must(err)
		expect("PeekRangeSig", w[0], 14)
		Recycle[int64](p, 1)
	}
}
