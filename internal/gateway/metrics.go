package gateway

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// handleMetrics serves the gateway's own Prometheus text-format counters.
// Same hand-rolled exposition style as the engine's /metrics endpoint —
// no client library, scrape cost independent of the ingest hot path
// (counters are atomics).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.Stats()

	var b strings.Builder
	counter := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}

	counter("raft_gateway_admitted_batches_total", "Batches admitted per tenant.")
	for _, t := range st.Tenants {
		fmt.Fprintf(&b, "raft_gateway_admitted_batches_total{tenant=%q} %d\n", t.Name, t.AdmittedBatches)
	}
	counter("raft_gateway_admitted_elements_total", "Elements admitted per tenant.")
	for _, t := range st.Tenants {
		fmt.Fprintf(&b, "raft_gateway_admitted_elements_total{tenant=%q} %d\n", t.Name, t.AdmittedElems)
	}
	counter("raft_gateway_shed_total", "Batches shed per tenant, by admission stage.")
	for _, t := range st.Tenants {
		fmt.Fprintf(&b, "raft_gateway_shed_total{tenant=%q,reason=\"quota\"} %d\n", t.Name, t.ShedQuota)
		fmt.Fprintf(&b, "raft_gateway_shed_total{tenant=%q,reason=\"model\"} %d\n", t.Name, t.ShedModel)
	}
	counter("raft_gateway_model_shed_total", "Batches shed per tenant by model-driven admission, by the rule that fired.")
	for _, t := range st.Tenants {
		for _, c := range ShedCauses {
			fmt.Fprintf(&b, "raft_gateway_model_shed_total{tenant=%q,cause=%q} %d\n", t.Name, c, t.ShedBy(c))
		}
	}
	counter("raft_gateway_source_admitted_elements_total", "Elements admitted per source.")
	for _, src := range st.Sources {
		fmt.Fprintf(&b, "raft_gateway_source_admitted_elements_total{source=%q} %d\n", src.Name, src.AdmittedElems)
	}
	counter("raft_gateway_source_dropped_total", "Elements dropped by best-effort source links.")
	for _, src := range st.Sources {
		fmt.Fprintf(&b, "raft_gateway_source_dropped_total{source=%q} %d\n", src.Name, src.Dropped)
	}
	counter("raft_gateway_source_copies_saved_total", "Admitted batches delivered without a per-request intermediate copy.")
	for _, src := range st.Sources {
		fmt.Fprintf(&b, "raft_gateway_source_copies_saved_total{source=%q} %d\n", src.Name, src.CopiesSaved)
	}

	_, _ = io.WriteString(w, b.String())
}
