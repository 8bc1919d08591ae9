package gateway

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"raftlib/internal/trace"
)

func TestBucketTake(t *testing.T) {
	var b bucket
	b.init(100, 50)
	now := time.Unix(0, 0)
	if ok, _, _ := b.take(50, now); !ok {
		t.Fatal("full bucket refused its burst")
	}
	ok, wait, _ := b.take(10, now)
	if ok {
		t.Fatal("empty bucket granted tokens")
	}
	if want := 100 * time.Millisecond; wait != want {
		t.Fatalf("wait = %v, want %v", wait, want)
	}
	// 100 elem/s refills 10 tokens in 100ms.
	if ok, _, _ := b.take(10, now.Add(100*time.Millisecond)); !ok {
		t.Fatal("refill did not grant")
	}
}

func TestBucketOversizedRequest(t *testing.T) {
	var b bucket
	b.init(10, 5)
	ok, wait, _ := b.take(50, time.Unix(0, 0))
	if ok {
		t.Fatal("request beyond burst granted")
	}
	// Refusal reports time-to-full, not the unreachable full deficit.
	if want := 500 * time.Millisecond; wait != want {
		t.Fatalf("wait = %v, want %v", wait, want)
	}
}

func TestBucketUnlimited(t *testing.T) {
	var b bucket
	b.init(0, 0)
	if ok, _, _ := b.take(1e12, time.Unix(0, 0)); !ok {
		t.Fatal("unlimited bucket refused")
	}
}

func TestBucketRefund(t *testing.T) {
	var b bucket
	b.init(100, 10)
	now := time.Unix(0, 0)
	if ok, _, _ := b.take(10, now); !ok {
		t.Fatal("take")
	}
	b.refund(10)
	if ok, _, _ := b.take(10, now); !ok {
		t.Fatal("refund did not restore tokens")
	}
}

// newTestServer builds an unstarted Server with one wired source feeding
// the returned sink slice.
func newTestServer(t *testing.T, cfg Config, w Wiring) (*Server, *[][]byte) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	var sink [][]byte
	err = srv.Register(Binding{
		Name: "words",
		Decode: func(p []byte) (any, int, error) {
			if len(p) == 0 {
				return nil, 0, fmt.Errorf("empty payload")
			}
			lines := bytes.Split(p, []byte("\n"))
			return lines, len(lines), nil
		},
		Push: func(batch any) error {
			sink = append(sink, batch.([][]byte)...)
			return nil
		},
		CloseIntake: func() {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Wire("words", w); err != nil {
		t.Fatal(err)
	}
	return srv, &sink
}

func idleWiring() Wiring {
	return Wiring{
		Queue:   func() (int, int) { return 0, 64 },
		Rates:   func() (float64, float64, float64, bool) { return 0, 0, 0, false },
		Servers: func() int { return 1 },
	}
}

func post(t *testing.T, h http.Handler, path, tenant, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw
}

func TestHTTPIngestAccepted(t *testing.T) {
	srv, sink := newTestServer(t, Config{}, idleWiring())
	rw := post(t, srv.Handler(), "/v1/ingest/words", "alice", "a\nb\nc")
	if rw.Code != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", rw.Code, rw.Body)
	}
	var resp map[string]int
	json.Unmarshal(rw.Body.Bytes(), &resp)
	if resp["admitted"] != 3 {
		t.Fatalf("admitted = %d, want 3", resp["admitted"])
	}
	if len(*sink) != 3 {
		t.Fatalf("sink got %d elements, want 3", len(*sink))
	}
	st := srv.Stats()
	if len(st.Tenants) != 1 || st.Tenants[0].Name != "alice" || st.Tenants[0].AdmittedElems != 3 {
		t.Fatalf("stats = %+v", st.Tenants)
	}
}

func TestHTTPUnknownSource(t *testing.T) {
	srv, _ := newTestServer(t, Config{}, idleWiring())
	if rw := post(t, srv.Handler(), "/v1/ingest/nope", "", "x"); rw.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rw.Code)
	}
}

func TestHTTPUnwiredSource(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	srv.Register(Binding{
		Name:   "cold",
		Decode: func(p []byte) (any, int, error) { return p, 1, nil },
		Push:   func(any) error { return nil },
	})
	if rw := post(t, srv.Handler(), "/v1/ingest/cold", "", "x"); rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 before Exe wires the source", rw.Code)
	}
}

func TestHTTPBadPayload(t *testing.T) {
	srv, _ := newTestServer(t, Config{}, idleWiring())
	if rw := post(t, srv.Handler(), "/v1/ingest/words", "", ""); rw.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rw.Code)
	}
}

func TestHTTPBodyTooLarge(t *testing.T) {
	srv, _ := newTestServer(t, Config{MaxBody: 8}, idleWiring())
	rw := post(t, srv.Handler(), "/v1/ingest/words", "", strings.Repeat("x", 64))
	if rw.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d", rw.Code)
	}
}

func TestHTTPQuotaShed(t *testing.T) {
	srv, _, rec := tracedTestServer(t, Config{
		Tenants: map[string]Quota{"alice": {Rate: 10, Burst: 3}},
	}, idleWiring())
	h := srv.Handler()
	if rw := post(t, h, "/v1/ingest/words", "alice", "a\nb\nc"); rw.Code != http.StatusAccepted {
		t.Fatalf("first batch: %d", rw.Code)
	}
	rw := post(t, h, "/v1/ingest/words", "alice", "d\ne\nf")
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rw.Code)
	}
	if ra := rw.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want positive seconds", ra)
	}
	// The unlimited co-tenant is untouched.
	if rw := post(t, h, "/v1/ingest/words", "bob", "x"); rw.Code != http.StatusAccepted {
		t.Fatalf("co-tenant: %d", rw.Code)
	}
	st := srv.Stats()
	for _, ts := range st.Tenants {
		if ts.Name == "alice" && ts.ShedQuota != 1 {
			t.Fatalf("alice ShedQuota = %d", ts.ShedQuota)
		}
	}
	// The trace carries the trigger: ~0 tokens left against 3 requested.
	for _, e := range rec.Events() {
		if e.Kind == trace.Shed && (e.Label != "alice/words quota" || e.Prev != 0 || e.Arg != 3) {
			t.Fatalf("quota shed event %q threshold %d observed %d", e.Label, e.Prev, e.Arg)
		}
	}
}

// checkModelShed asserts one model shed of the given cause landed in every
// view: the per-cause stats counter (and ShedModel beside it), the labelled
// /metrics series, and a Shed trace event carrying threshold and observed.
func checkModelShed(t *testing.T, srv *Server, rec *trace.Recorder, cause ShedCause, threshold, observed int64) {
	t.Helper()
	ts := srv.Stats().Tenants[0]
	if ts.ShedModel != 1 {
		t.Fatalf("ShedModel = %d, want 1", ts.ShedModel)
	}
	for _, c := range ShedCauses {
		want := uint64(0)
		if c == cause {
			want = 1
		}
		if got := ts.ShedBy(c); got != want {
			t.Fatalf("ShedBy(%v) = %d, want %d", c, got, want)
		}
	}
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	series := fmt.Sprintf("raft_gateway_model_shed_total{tenant=%q,cause=%q} 1", ts.Name, cause.String())
	for _, want := range []string{series, fmt.Sprintf("raft_gateway_shed_total{tenant=%q,reason=\"model\"} 1", ts.Name)} {
		if !strings.Contains(rw.Body.String(), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, rw.Body)
		}
	}
	var sheds []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == trace.Shed {
			sheds = append(sheds, e)
		}
	}
	if len(sheds) != 1 {
		t.Fatalf("%d shed events, want 1", len(sheds))
	}
	e := sheds[0]
	if !strings.HasSuffix(e.Label, "/words "+cause.String()) || e.Prev != threshold || e.Arg != observed {
		t.Fatalf("shed event label %q threshold %d observed %d, want cause %v, %d, %d",
			e.Label, e.Prev, e.Arg, cause, threshold, observed)
	}
}

func tracedTestServer(t *testing.T, cfg Config, w Wiring) (*Server, *[][]byte, *trace.Recorder) {
	t.Helper()
	srv, sink := newTestServer(t, cfg, w)
	rec := trace.NewRecorder(64)
	srv.SetTrace(rec, 0)
	return srv, sink, rec
}

func TestHTTPModelShedOccupancy(t *testing.T) {
	w := idleWiring()
	w.Queue = func() (int, int) { return 60, 64 } // 94% full
	srv, sink, rec := tracedTestServer(t, Config{}, w)
	rw := post(t, srv.Handler(), "/v1/ingest/words", "alice", "a")
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rw.Code)
	}
	if ra := rw.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q", ra)
	}
	if len(*sink) != 0 {
		t.Fatal("shed batch reached the source")
	}
	// Default OccShed 0.75 of 64 = a 48-element line; 60 observed.
	checkModelShed(t, srv, rec, ShedOccupancy, 48, 60)
}

func TestHTTPModelShedUtilization(t *testing.T) {
	w := idleWiring()
	w.Rates = func() (float64, float64, float64, bool) { return 95, 100, 0.95, true }
	srv, _, rec := tracedTestServer(t, Config{}, w)
	if rw := post(t, srv.Handler(), "/v1/ingest/words", "alice", "a"); rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 at rho=0.95", rw.Code)
	}
	// Default RhoShed 0.9; ρ̂ 0.95, both in thousandths on the trace.
	checkModelShed(t, srv, rec, ShedRho, 900, 950)
}

func TestHTTPModelShedPredictedWait(t *testing.T) {
	w := idleWiring()
	// rho = 0.85 < RhoShed, but the predicted M/M/1 wait 0.85/(10*0.15) =
	// 567ms blows a 100ms MaxWait.
	w.Rates = func() (float64, float64, float64, bool) { return 8.5, 10, 0.85, true }
	srv, _, rec := tracedTestServer(t, Config{MaxWait: 100 * time.Millisecond}, w)
	if rw := post(t, srv.Handler(), "/v1/ingest/words", "alice", "a"); rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 on predicted wait", rw.Code)
	}
	checkModelShed(t, srv, rec, ShedWait, 100, 567)
}

func TestHTTPBestEffortAdmitsUnderLoad(t *testing.T) {
	w := idleWiring()
	w.Queue = func() (int, int) { return 64, 64 } // saturated...
	w.BestEffort = true                           // ...but the ring sheds
	w.Dropped = func() uint64 { return 17 }
	srv, _ := newTestServer(t, Config{}, w)
	if rw := post(t, srv.Handler(), "/v1/ingest/words", "", "a"); rw.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 on best-effort link", rw.Code)
	}
	st := srv.Stats()
	if st.Sources[0].Dropped != 17 {
		t.Fatalf("source Dropped = %d, want 17", st.Sources[0].Dropped)
	}
}

func TestHTTPCloseIntake(t *testing.T) {
	closedCh := false
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	srv.Register(Binding{
		Name:        "words",
		Decode:      func(p []byte) (any, int, error) { return p, 1, nil },
		Push:        func(any) error { return nil },
		CloseIntake: func() { closedCh = true },
	})
	req := httptest.NewRequest("POST", "/v1/sources/words/close", nil)
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusNoContent || !closedCh {
		t.Fatalf("close: status %d, closed %v", rw.Code, closedCh)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Config{}, idleWiring())
	h := srv.Handler()
	post(t, h, "/v1/ingest/words", "alice", "a\nb")
	req := httptest.NewRequest("GET", "/metrics", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	body := rw.Body.String()
	for _, want := range []string{
		`raft_gateway_admitted_elements_total{tenant="alice"} 2`,
		`raft_gateway_shed_total{tenant="alice",reason="model"} 0`,
		`raft_gateway_source_admitted_elements_total{source="words"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestModelShedRefundsQuota(t *testing.T) {
	w := idleWiring()
	full := true
	w.Queue = func() (int, int) {
		if full {
			return 64, 64
		}
		return 0, 64
	}
	srv, _ := newTestServer(t, Config{
		Tenants: map[string]Quota{"alice": {Rate: 1, Burst: 1}},
	}, w)
	h := srv.Handler()
	// Model shed must refund the token...
	if rw := post(t, h, "/v1/ingest/words", "alice", "a"); rw.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d", rw.Code)
	}
	// ...so the same batch is admitted the moment the pipeline drains.
	full = false
	if rw := post(t, h, "/v1/ingest/words", "alice", "a"); rw.Code != http.StatusAccepted {
		t.Fatalf("after drain: %d (model shed consumed the quota token)", rw.Code)
	}
}

func TestFramedRoundtrip(t *testing.T) {
	srv, err := New(Config{FramedAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	var got int
	srv.Register(Binding{
		Name: "words",
		Decode: func(p []byte) (any, int, error) {
			return p, len(bytes.Split(p, []byte("\n"))), nil
		},
		Push: func(batch any) error {
			got += len(bytes.Split(batch.([]byte), []byte("\n")))
			return nil
		},
	})
	srv.Wire("words", idleWiring())
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.FramedAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	status, value, _ := framedSend(t, conn, "words", "alice", "a\nb\nc")
	if status != FrameAccepted || value != 3 {
		t.Fatalf("frame response = %d/%d, want accepted/3", status, value)
	}
	if got != 3 {
		t.Fatalf("source got %d elements", got)
	}
	// Unknown source answers FrameError.
	status, _, msg := framedSend(t, conn, "ghost", "", "x")
	if status != FrameError || !strings.Contains(msg, "ghost") {
		t.Fatalf("unknown source: status %d msg %q", status, msg)
	}
}

func TestFramedShedCarriesRetry(t *testing.T) {
	w := idleWiring()
	w.Queue = func() (int, int) { return 64, 64 }
	srv, _ := newTestServer(t, Config{FramedAddr: "127.0.0.1:0"}, w)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.FramedAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	status, retry, _ := framedSend(t, conn, "words", "alice", "a")
	if status != FrameShed || retry < 1 {
		t.Fatalf("shed frame = %d/%d, want shed with positive retry", status, retry)
	}
}

// framedSend writes one request frame and reads one response frame.
func framedSend(t *testing.T, conn net.Conn, source, tenant, payload string) (status uint8, value uint32, msg string) {
	t.Helper()
	body := make([]byte, 0, 2+len(source)+len(tenant)+len(payload))
	body = append(body, byte(len(source)))
	body = append(body, source...)
	body = append(body, byte(len(tenant)))
	body = append(body, tenant...)
	body = append(body, payload...)
	frame := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	frame = append(frame, body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	return resp[0], binary.BigEndian.Uint32(resp[1:5]), string(resp[5:])
}
