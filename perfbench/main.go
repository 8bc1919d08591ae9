// Command perfbench is the repository benchmark: four seeded workloads
// (chain, textsearch, gateway, bridge) that report end-to-end metrics from
// an untraced run (-trace 0) and per-layer metrics from a traced run
// (-trace 1). Every workload checks its outputs against an oracle; a
// mismatch makes the command exit non-zero. See README.md for what each
// workload measures and why.
//
//	go run . -workload chain -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named result with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run's tally and metrics.
type result struct {
	// attempted counts operations issued; failed counts operations whose
	// output was wrong, that errored, or that got a 5xx or timed out.
	attempted, failed int64
	// refused counts operations the program declined under its admission
	// contract (HTTP 429). They are not failures of the run, but they
	// count against ok_ratio and every latency limit.
	refused int64
	metrics map[string]metric
	// lifecycles collects the traced run's Exe timings.
	lifecycles []lifecycle
	notes      []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one checked operation of n attempts; ok=false marks all n
// failed and notes why.
func (r *result) check(ok bool, n int64, format string, args ...any) {
	r.attempted += n
	if !ok {
		r.failed += n
		r.note("ORACLE FAILED: "+format, args...)
	}
}

// endToEnd names the metrics an untraced run reports. The ladder's latency
// percentiles and the allocation per event are measured in every untraced
// run too, but they are reported as per-layer metrics of the traced run
// (see runLayers): on the shared 2-vCPU host they moved by half or more
// between runs of the same code whenever the host changed state, which a
// bounded end-to-end metric cannot absorb, while these five stayed within
// their bounds.
var endToEnd = map[string]bool{
	"setup_s": true, "items_per_s": true, "bytes_per_s": true,
	"ok_ratio": true, "max_sustained_rps": true,
}

// ladderLayer names the metrics runLayers takes from an untraced run of
// the selected workload.
var ladderLayer = []string{
	"event_p50_ms.low", "event_p99_ms.low", "event_p50_ms.high", "event_p99_ms.high",
	"request_p50_ms.high", "request_p99_ms.high", "alloc_bytes_per_item",
}

// okRatio is the share of attempted operations that neither failed nor
// were refused: the complement of the failed ratio, kept non-zero so its
// run-to-run spread is defined.
func (r *result) okRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed-r.refused) / float64(r.attempted)
}

type workload struct {
	name string
	// run measures the workload untraced and fills every end-to-end metric.
	run func(cfg runConfig, res *result) error
	// layers runs the workload's traced section for the per-layer metrics.
	layers func(cfg runConfig, tr *tracer, res *result) error
}

// runConfig is what every workload receives.
type runConfig struct {
	seed   uint64
	budget time.Duration
	outDir string
}

var workloads = []workload{
	{"chain", runChain, layersChain},
	{"textsearch", runTextsearch, layersTextsearch},
	{"gateway", runGateway, layersGateway},
	{"bridge", runBridge, layersBridge},
}

func main() {
	name := flag.String("workload", "", "workload: chain, textsearch, gateway or bridge")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".perfbench_out", "directory for span dumps")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload=%q seconds=%d trace=%d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	cfg := runConfig{
		seed:   *seed,
		budget: time.Duration(*seconds) * time.Second,
		outDir: *out,
	}
	host := stampHost()
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostJSON)

	res := newResult()
	var err error
	if *traceFlag == 1 {
		err = runLayers(*w, cfg, res)
	} else {
		err = w.run(cfg, res)
		if err == nil {
			res.set("ok_ratio", "ratio", res.okRatio())
			for name, m := range res.metrics {
				if !endToEnd[name] {
					res.note("per-layer %s %.6g %s", name, m.Value, m.Unit)
					delete(res.metrics, name)
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	printTable(res)
	if !finite(res) {
		fmt.Fprintln(os.Stderr, "perfbench: a metric is not a finite number")
		os.Exit(1)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if res.failed != 0 {
		os.Exit(1)
	}
}

// runLayers is the traced run: every layer section, the selected
// workload's tracing overhead (process CPU per operation of a traced
// section over the same section untraced), and the selected workload's
// ladder latencies and allocation from an untraced run a third as long.
func runLayers(w workload, cfg runConfig, res *result) error {
	sub := newResult()
	short := cfg
	short.budget = cfg.budget / 3
	if err := w.run(short, sub); err != nil {
		return err
	}
	for _, name := range ladderLayer {
		res.metrics[name] = sub.metrics[name]
	}
	res.attempted += sub.attempted
	res.failed += sub.failed
	res.refused += sub.refused
	res.notes = append(res.notes, sub.notes...)

	tr := newTracer(spanStride)
	if err := runProbes(cfg, tr, res); err != nil {
		return err
	}
	for _, l := range workloads {
		if err := l.layers(cfg, tr, res); err != nil {
			return fmt.Errorf("%s layers: %w", l.name, err)
		}
	}
	var starts, drains []float64
	for _, lc := range res.lifecycles {
		starts = append(starts, float64(lc.start)/1e3)
		drains = append(drains, float64(lc.drain)/1e3)
	}
	res.set("raft.exe_start_us", "us", median(starts))
	res.set("raft.exe_drain_us", "us", median(drains))
	ratio, err := tracingOverhead(w.name, cfg, res)
	if err != nil {
		return err
	}
	res.set("harness.tracing_overhead_ratio", "ratio", ratio)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
	n, err := tr.writeJSONL(path)
	if err != nil {
		return err
	}
	res.note("wrote %d spans to %s", n, path)
	return nil
}

func printTable(res *result) {
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

func finite(res *result) bool {
	for _, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}

// hostStamp fingerprints the machine a result was measured on.
type hostStamp struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	SleepMinUs float64 `json:"sleep_min_us"`
	TimerResNs float64 `json:"timer_granularity_ns"`
}

// stampHost measures the shortest time.Sleep (the floor scheduler wake
// latencies must be read against) and the smallest non-zero step of the
// monotonic clock.
func stampHost() hostStamp {
	var sleeps []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		time.Sleep(time.Microsecond)
		sleeps = append(sleeps, float64(time.Since(t0))/1e3)
	}
	var steps []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		t1 := time.Now()
		for t1.Sub(t0) == 0 {
			t1 = time.Now()
		}
		steps = append(steps, float64(t1.Sub(t0)))
	}
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SleepMinUs: median(sleeps),
		TimerResNs: median(steps),
	}
}
