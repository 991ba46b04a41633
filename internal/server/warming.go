package server

import (
	"io"
	"net/http"
	"sync/atomic"
)

// Warming is the bind-first front door of a serving process. A server that
// loads (or builds) its engine before calling net.Listen leaves a window in
// which clients and orchestrator probes get connection-refused —
// indistinguishable from a dead process. Binding first and serving Warming
// until the engine is ready turns that window into an explicit protocol:
//
//   - GET /healthz answers 200 "warming\n" immediately — liveness: the
//     process is up and making progress (readiness is signalled by the body
//     flipping to "ok").
//   - Every other request answers 503 with a Retry-After hint — the client
//     knows to back off and retry, instead of concluding the host is gone.
//
// Ready installs the real handler atomically; in-flight warming responses
// finish as 503s, every request accepted afterwards is served normally.
// With lazy snapshot loading (igq.WithLazyLoad) the warming window is just
// the metadata read, so readiness arrives in O(touched segments) — this
// handler is what makes that time observable from outside.
type Warming struct {
	h atomic.Pointer[http.Handler]
}

// NewWarming returns a Warming front door with no handler installed.
func NewWarming() *Warming { return &Warming{} }

// Ready installs the real handler; every request from this point on is
// delegated to it.
func (wm *Warming) Ready(h http.Handler) { wm.h.Store(&h) }

func (wm *Warming) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if hp := wm.h.Load(); hp != nil {
		(*hp).ServeHTTP(w, r)
		return
	}
	if r.Method == http.MethodGet && r.URL.Path == "/healthz" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "warming\n")
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "warming: engine not ready")
}
