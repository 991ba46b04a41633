package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// span is one timed call into a layer, recorded by the harness from outside
// the layer. Spans of one request share its number; Parent is the ID of the
// span that caused this one (-1 for the request itself). Times are
// nanoseconds since the trace began.
type span struct {
	ID      int    `json:"id"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. The traced replay runs
// on one goroutine, so there is no locking; cur is the span new children
// attach to. A nil tracer records nothing — that is "spans off" — and so
// does one that is not on (the replay's warm-up).
type tracer struct {
	t0      time.Time
	spans   []span
	request int
	cur     int
	on      bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the current one and makes it current.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Request: t.request, Name: name, Start: t.now(), Parent: t.cur})
	t.cur = id
	return id
}

// end closes span id and makes its parent current again.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	t.cur = t.spans[id].Parent
}

// add records a span whose interval was measured elsewhere (a duration the
// layer reports about itself), as a child of parent.
func (t *tracer) add(name string, parent int, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Request: t.request, Name: name, Start: start, End: end, Parent: parent})
}

// durationsUS returns the durations, in microseconds, of the spans called name.
func (t *tracer) durationsUS(name string) []float64 {
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap one another).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerOf maps a span name to the module it times: "index.filter" → "index".
// The request span itself belongs to the harness's stand-in for the server's
// handler, so its self time (loop overhead between calls) counts as server.
func layerOf(name string) string {
	if name == "request" {
		return "server"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerStat is one row of the per-layer report.
type layerStat struct {
	Layer    string  // module name
	Count    int     // spans of the layer
	P50us    float64 // self time per span
	P99us    float64
	ReqP50us float64 // the layer's self time within the median request
	SelfMS   float64 // Σ self
	Share    float64 // of wall-clock: Σ self ÷ Σ request
}

// layerReport aggregates self times by layer, two ways: summed over the run
// as a share of wall-clock (what throughput and CPU cost follow), and summed
// within each request, taking the median over requests (what p50 latency
// follows — with a heavy tail the two differ). extra adds one self-time
// sample per request (nanoseconds) measured outside the span timeline — the
// lazy workload's fault time, a difference between two replays — and their
// sum extends the wall-clock the shares are taken over.
func layerReport(spans []span, extra map[string][]int64) []layerStat {
	self := selfTimes(spans)
	by := map[string][]float64{}
	perRequest := map[string]map[int]float64{}
	requests := 0
	var wall float64
	for _, s := range spans {
		layer := layerOf(s.Name)
		by[layer] = append(by[layer], float64(self[s.ID]))
		if perRequest[layer] == nil {
			perRequest[layer] = map[int]float64{}
		}
		perRequest[layer][s.Request] += float64(self[s.ID])
		if s.Parent < 0 {
			wall += float64(s.End - s.Start)
			requests++
		}
	}
	for layer, xs := range extra {
		perRequest[layer] = map[int]float64{}
		for i, x := range xs {
			by[layer] = append(by[layer], float64(x))
			perRequest[layer][i] = float64(x)
			wall += float64(x)
		}
	}
	var out []layerStat
	for layer, xs := range by {
		slices.Sort(xs)
		var sum float64
		for _, x := range xs {
			sum += x
		}
		// Requests in which the layer never ran count as zero.
		perReq := make([]float64, requests)
		i := 0
		for _, v := range perRequest[layer] {
			if i < requests {
				perReq[i] = v
				i++
			}
		}
		slices.Sort(perReq)
		st := layerStat{
			Layer: layer, Count: len(xs), P50us: percentile(xs, 0.50) / 1e3, P99us: percentile(xs, 0.99) / 1e3,
			ReqP50us: percentile(perReq, 0.50) / 1e3, SelfMS: sum / 1e6,
		}
		if wall > 0 {
			st.Share = sum / wall
		}
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Share > out[b].Share })
	return out
}

func printLayerReport(w io.Writer, rows []layerStat) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  layer\tspans\tself p50 us\tself p99 us\tin median request us\tself total ms\tshare of wall-clock")
	for _, r := range rows {
		fmt.Fprintf(tw, "  %s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f%%\n", r.Layer, r.Count, r.P50us, r.P99us, r.ReqP50us, r.SelfMS, 100*r.Share)
	}
	tw.Flush()
}

// writeSpans writes the trace as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
