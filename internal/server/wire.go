// Package server is the network serving front-end: it exposes a live iGQ
// engine — queries, streaming queries, dataset mutation, stats and
// snapshotting — as an HTTP/JSON API with bounded admission, per-request
// deadlines, panic containment and graceful drain. See Server for the
// queueing model and Client for the matching Go client.
package server

import (
	"errors"
	"fmt"
	"time"

	igq "repro"
	"repro/internal/graph"
	"repro/internal/partition"
)

// WireGraph is the JSON form of a labeled graph: vertex i carries
// Labels[i], and each edge is [u, v] or [u, v, edgeLabel]. Dataset graphs
// additionally carry their position-independent ID when one is known.
type WireGraph struct {
	ID     int         `json:"id,omitempty"`
	Labels []igq.Label `json:"labels"`
	Edges  [][3]int    `json:"edges,omitempty"`
}

// EncodeGraph converts a graph to its wire form.
func EncodeGraph(g *igq.Graph) WireGraph {
	w := WireGraph{ID: g.ID, Labels: g.Labels()}
	g.EdgesLabeled(func(u, v int, l igq.Label) {
		w.Edges = append(w.Edges, [3]int{u, v, int(l)})
	})
	return w
}

// DecodeGraph converts a wire graph back to a *igq.Graph, built in one
// pass (graph.FromEdges), so it is valid by construction.
func DecodeGraph(w WireGraph) (*igq.Graph, error) {
	edges := make([]graph.Edge, len(w.Edges))
	for i, e := range w.Edges {
		edges[i] = graph.Edge{U: e[0], V: e[1], L: igq.Label(e[2])}
	}
	g, bad := graph.FromEdges(w.Labels, edges)
	if bad >= 0 {
		u, v, n := w.Edges[bad][0], w.Edges[bad][1], len(w.Labels)
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("edge (%d,%d) outside %d vertices", u, v, n)
		}
		return nil, fmt.Errorf("invalid or duplicate edge (%d,%d)", u, v)
	}
	g.ID = w.ID
	return g, nil
}

// Query modes on the wire.
const (
	ModeSub   = "sub"   // which dataset graphs contain the query
	ModeSuper = "super" // which dataset graphs are contained in the query
)

// QueryRequest is the body of POST /query and each line of POST
// /query/stream.
type QueryRequest struct {
	Graph WireGraph `json:"graph"`
	// Mode selects the query direction; empty means "sub". "super"
	// requires a server that serves supergraph queries (igqserve -super).
	Mode string `json:"mode,omitempty"`
	// TimeoutMillis caps this request's processing time (0 → the server's
	// default); mapped onto context cancellation, so an expired query
	// aborts mid-verification and leaves no trace in the cache.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses iGQ for this query; NoAdmit probes the cache but
	// never admits (the latency-bounded serving profile).
	NoCache bool `json:"no_cache,omitempty"`
	NoAdmit bool `json:"no_admit,omitempty"`
}

// QueryReply is the body of a successful /query response and each line of
// a /query/stream response.
type QueryReply struct {
	// Index is the arrival index of the query within a stream (0 for
	// single queries); stream replies are emitted in completion order.
	Index int `json:"index"`
	// IDs are the global graph IDs answering the query, sorted ascending.
	// For a dataset igqgen or dataset.Generate wrote, IDs equal positions
	// until the first mutation.
	IDs []int32 `json:"ids"`
	// Stats are the per-query iGQ counters.
	Stats igq.QueryStats `json:"stats"`
	// Error is set instead of IDs when this query failed; the stream (and
	// the server) keep going.
	Error string `json:"error,omitempty"`
}

// MutateRequest is the body of POST /graphs/add (Graphs) and POST
// /graphs/remove (Positions). Positions carries global graph IDs, not
// dataset positions (the field keeps its name for existing clients):
// removal routes by ID to the owning partition. Added graphs must carry IDs
// unique in the dataset.
type MutateRequest struct {
	Graphs    []WireGraph `json:"graphs,omitempty"`
	Positions []int       `json:"positions,omitempty"`
}

// MutateReply reports the post-mutation dataset size.
type MutateReply struct {
	DatasetSize int `json:"dataset_size"`
}

// ServerStats is the serving-layer half of GET /stats.
type ServerStats struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Served         int64   `json:"served"`               // requests that reached an engine
	Rejected       int64   `json:"rejected"`             // 429s from a full admission queue
	Errors         int64   `json:"errors"`               // query executions that returned an error
	InFlight       int     `json:"in_flight"`            // queries executing right now
	Workers        int     `json:"workers"`              // execution slots
	QueueDepth     int     `json:"queue_depth"`          // waiting slots beyond Workers
	Maintenance    int64   `json:"maintenance"`          // journal maintenance passes that wrote the lineage file
	SnapshotsSaved int64   `json:"snapshots_saved"`      // explicit + shutdown snapshot saves
	Partitions     int     `json:"partitions,omitempty"` // partition count (1 = a single engine)
}

// StatsReply is the body of GET /stats. Sub and Super aggregate across
// partitions and Partitions breaks them down.
type StatsReply struct {
	Server     ServerStats      `json:"server"`
	Sub        igq.EngineStats  `json:"sub"`
	Super      *igq.EngineStats `json:"super,omitempty"`
	Partitions []partition.Stat `json:"partitions,omitempty"`
}

// errorReply is the JSON body of every non-2xx response.
type errorReply struct {
	Error string `json:"error"`
}

// ErrQueueFull is returned (client-side) when the server rejected a query
// with 429: every execution and waiting slot was taken. The caller should
// back off and retry; the server never queues unboundedly.
var ErrQueueFull = errors.New("server: admission queue full")

// ErrWarming is the sentinel under an *UnavailableError: the process is up
// but its engine is not ready yet (the bind-first warming front door's 503).
// Like ErrQueueFull this is back-pressure, not failure — back off for the
// advertised Retry-After and retry.
var ErrWarming = errors.New("server: warming up")

// UnavailableError is a 503 response: the serving process answered, but
// cannot serve yet. RetryAfter carries the server's Retry-After hint.
type UnavailableError struct {
	RetryAfter time.Duration
	Msg        string
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("server: unavailable (retry after %v): %s", e.RetryAfter, e.Msg)
}

// Unwrap lets errors.Is(err, ErrWarming) classify the 503 without caring
// about the hint.
func (e *UnavailableError) Unwrap() error { return ErrWarming }

// APIError is a non-2xx server response surfaced by the Client.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.Status, e.Msg)
}
