package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"soundboost/api"
)

// client is one closed-loop caller: it sends a request only after the
// previous one was answered, as `soundboost push`, `sweep` and the
// gateway itself do.
type client struct {
	hc    *http.Client
	entry string
	tr    *tracer // nil when not tracing
}

// session is the record of one served flight.
type session struct {
	name   string
	pool   int       // index into the lab pool
	wall   float64   // seconds from open (or upload start) to report read
	chunks []float64 // round trip of every frames POST (the upload for batch)
	bytes  int       // request body bytes sent
	err    error     // non-nil when any operation failed or the report differed
	ops    int       // operations attempted
	failed int       // operations failed
}

// call performs one request, reads the whole response, and records a
// client span when tracing. It fails on any non-2xx status.
func (c *client) call(s *session, method, url string, body []byte, out any) ([]byte, error) {
	s.ops++
	s.bytes += len(body)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	tracing := c.tr != nil && c.tr.on.Load()
	var start float64
	if tracing {
		req.Header.Set(traceHeader, s.name)
		start = c.tr.now()
	}
	resp, err := c.hc.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if tracing {
		c.tr.add(s.name, "client."+route(method, req.URL.Path), start, c.tr.now())
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return raw, fmt.Errorf("%s %s: HTTP %d: %s", method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return raw, fmt.Errorf("%s %s: %w", method, req.URL.Path, err)
		}
	}
	return raw, nil
}

// stream serves one flight as a streaming session: open, post every
// chunk, read the report, and compare it byte for byte with the
// reference.
func (c *client) stream(s *session, p *poolFlight) error {
	open, err := json.Marshal(api.SessionRequest{Flight: s.name, SampleRateHz: p.rate, Buffer: pushBuffer})
	if err != nil {
		return err
	}
	var created api.SessionResponse
	if _, err := c.call(s, http.MethodPost, c.entry+"/v1/sessions", open, &created); err != nil {
		return err
	}
	if c.tr != nil && c.tr.on.Load() {
		c.tr.setOwner(created.ID, s.name)
	}
	base := c.entry + "/v1/sessions/" + created.ID
	for _, chunk := range p.chunks {
		t0 := time.Now()
		var fr api.FramesResponse
		_, err := c.call(s, http.MethodPost, base+"/frames", chunk, &fr)
		s.chunks = append(s.chunks, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if fr.Shed > 0 {
			return fmt.Errorf("session %s shed %d message(s)", s.name, fr.Shed)
		}
	}
	got, err := c.call(s, http.MethodGet, base+"/report", nil, nil)
	if err != nil {
		return err
	}
	want, err := p.want(s.name)
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), want) {
		return fmt.Errorf("session %s: served report differs from reference:\n got %s\nwant %s", s.name, got, want)
	}
	return nil
}

// batch uploads one flight as an .sbf body and compares the served
// report with the reference.
func (c *client) batch(s *session, p *poolFlight) error {
	t0 := time.Now()
	var resp struct {
		Report         json.RawMessage `json:"report"`
		ElapsedSeconds float64         `json:"elapsed_seconds"`
	}
	_, err := c.call(s, http.MethodPost, c.entry+"/v1/flights", p.body(s.name), &resp)
	s.chunks = append(s.chunks, time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	want, err := p.want(s.name)
	if err != nil {
		return err
	}
	if !bytes.Equal(resp.Report, want) {
		return fmt.Errorf("flight %s: served report differs from reference:\n got %s\nwant %s", s.name, resp.Report, want)
	}
	return nil
}

// serve runs one session of the workload for the pool flight idx.
func (c *client) serve(workload, name string, idx int, p *poolFlight) *session {
	s := &session{name: name, pool: idx}
	var start float64
	tracing := c.tr != nil && c.tr.on.Load()
	if tracing {
		start = c.tr.now()
	}
	t0 := time.Now()
	if workload == "batch-incident" {
		s.err = c.batch(s, p)
	} else {
		s.err = c.stream(s, p)
	}
	s.wall = time.Since(t0).Seconds()
	if tracing {
		c.tr.add(s.name, "session", start, c.tr.now())
	}
	if s.err != nil {
		s.failed++
	}
	return s
}

// runLoad drives nClients closed-loop clients until the deadline: each
// takes the next flight of the pool in turn and serves it under a unique
// name. Sessions in flight at the deadline complete. It returns the
// sessions, the served rate — the sum over clients of sessions completed
// per second the client was busy, which does not depend on where the
// deadline falls within a session — and the wall time from the first
// start to the last finish.
func runLoad(workload string, l *lab, nClients int, hc *http.Client, entry string, tr *tracer,
	seconds float64, prefix string, next *atomic.Int64) (sessions []*session, rate, wall float64) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{hc: hc, entry: entry, tr: tr}
			ok := 0
			for time.Now().Before(deadline) {
				n := next.Add(1) - 1
				idx := int(n % int64(len(l.pool)))
				s := c.serve(workload, fmt.Sprintf("%s-%06d", prefix, n), idx, l.pool[idx])
				if s.err == nil {
					ok++
				}
				mu.Lock()
				sessions = append(sessions, s)
				mu.Unlock()
				if s.err != nil {
					break // a failed run is reported, not retried
				}
			}
			busy := time.Since(start).Seconds()
			mu.Lock()
			rate += float64(ok) / busy
			mu.Unlock()
		}()
	}
	wg.Wait()
	return sessions, rate, time.Since(start).Seconds()
}
