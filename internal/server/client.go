package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	igq "repro"
)

// Client is the Go client for a Server. Safe for concurrent use; one
// Client multiplexes any number of goroutines over net/http's pooled
// connections.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a server at base (e.g. "http://127.0.0.1:7468").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// post sends a JSON body and decodes a JSON reply, translating non-2xx
// responses into *APIError (or ErrQueueFull for 429).
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeAPIError(resp *http.Response) error {
	var er errorReply
	msg := resp.Status
	if json.NewDecoder(resp.Body).Decode(&er) == nil && er.Error != "" {
		msg = er.Error
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return fmt.Errorf("%w: %s", ErrQueueFull, msg)
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		ra := time.Second
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				ra = time.Duration(secs) * time.Second
			}
		}
		return &UnavailableError{RetryAfter: ra, Msg: msg}
	}
	return &APIError{Status: resp.StatusCode, Msg: msg}
}

// Query answers one query over the wire.
func (c *Client) Query(ctx context.Context, req QueryRequest) (QueryReply, error) {
	var reply QueryReply
	err := c.post(ctx, "/query", req, &reply)
	return reply, err
}

// QueryGraph is the common case: one graph, one mode, server defaults.
func (c *Client) QueryGraph(ctx context.Context, g *igq.Graph, mode string) (QueryReply, error) {
	return c.Query(ctx, QueryRequest{Graph: EncodeGraph(g), Mode: mode})
}

// QueryStream runs the NDJSON streaming endpoint: requests are read from
// in (send then close), replies arrive on the returned channel in the
// server's completion order and the channel closes when the stream ends.
// A reply whose Error is set is a per-query failure; an error on the
// returned error channel is a transport- or stream-level failure. The
// error channel closes when the stream ends, so `err := <-errc` yields
// nil on a clean finish. mode applies to every query; timeout bounds the
// whole stream (0 → server default).
func (c *Client) QueryStream(ctx context.Context, mode string, timeout time.Duration, in <-chan QueryRequest) (<-chan QueryReply, <-chan error) {
	replies := make(chan QueryReply)
	errc := make(chan error, 1)
	pr, pw := io.Pipe()
	go func() {
		enc := json.NewEncoder(pw)
		for req := range in {
			if err := enc.Encode(req); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()
	url := c.base + "/query/stream"
	sep := "?"
	if mode != "" {
		url += sep + "mode=" + mode
		sep = "&"
	}
	if timeout > 0 {
		url += fmt.Sprintf("%stimeout_ms=%d", sep, timeout.Milliseconds())
	}
	go func() {
		defer close(replies)
		defer close(errc)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, pr)
		if err != nil {
			errc <- err
			return
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := c.hc.Do(req)
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			errc <- decodeAPIError(resp)
			return
		}
		dec := json.NewDecoder(resp.Body)
		for {
			var reply QueryReply
			if err := dec.Decode(&reply); err != nil {
				if err != io.EOF {
					errc <- err
				}
				return
			}
			select {
			case replies <- reply:
			case <-ctx.Done():
				errc <- context.Cause(ctx)
				return
			}
		}
	}()
	return replies, errc
}

// AddGraphs appends graphs to the server's dataset.
func (c *Client) AddGraphs(ctx context.Context, gs []*igq.Graph) (MutateReply, error) {
	req := MutateRequest{Graphs: make([]WireGraph, len(gs))}
	for i, g := range gs {
		req.Graphs[i] = EncodeGraph(g)
	}
	var reply MutateReply
	err := c.post(ctx, "/graphs/add", req, &reply)
	return reply, err
}

// RemoveGraphs removes the graphs with the given global graph IDs (see
// partition.Group.RemoveGraphs).
func (c *Client) RemoveGraphs(ctx context.Context, ids []int) (MutateReply, error) {
	var reply MutateReply
	err := c.post(ctx, "/graphs/remove", MutateRequest{Positions: ids}, &reply)
	return reply, err
}

// Stats fetches the engine and serving-layer counters.
func (c *Client) Stats(ctx context.Context) (StatsReply, error) {
	var reply StatsReply
	err := c.get(ctx, "/stats", &reply)
	return reply, err
}

// Healthz reports whether the server answers its health check.
func (c *Client) Healthz(ctx context.Context) error {
	return c.get(ctx, "/healthz", nil)
}
