package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soundboost/api"
)

// traceHeader carries a session's trace id (its unique flight name) on
// every request of a traced session: set by the client on inbound
// requests and by the tracing transport on the gateway's outbound ones.
const traceHeader = "X-Servebench-Trace"

// tracer records spans in memory at the benchmark's live boundaries: the
// client, an http.Handler around every server and the gateway, and the
// gateway's outbound transport. It records only while on.
type tracer struct {
	base time.Time
	on   atomic.Bool

	mu    sync.Mutex
	spans []Span
	// owner maps a backend session ("<host>/<id>") or a gateway session
	// id to its trace, so outbound gateway calls, which carry no header of
	// their own, can be attributed.
	owner map[string]string
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), owner: map[string]string{}}
}

// now reads the tracer's monotonic clock in seconds.
func (t *tracer) now() float64 { return time.Since(t.base).Seconds() }

func (t *tracer) add(trace, name string, start, end float64) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Trace: trace, Name: name, Start: start, End: end, Parent: unlinked})
	t.mu.Unlock()
}

func (t *tracer) setOwner(key, trace string) {
	t.mu.Lock()
	t.owner[key] = trace
	t.mu.Unlock()
}

func (t *tracer) ownerOf(key string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.owner[key]
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// route names a /v1 request by its handler.
func route(method, path string) string {
	p := strings.TrimPrefix(path, "/"+api.Version+"/")
	switch {
	case p == "flights":
		return "flights"
	case p == "sessions" && method == http.MethodPost:
		return "create"
	case strings.HasSuffix(p, "/journal/append"):
		return "follower_append"
	case strings.HasPrefix(p, "sessions/"):
		return p[strings.LastIndexByte(p, '/')+1:]
	default:
		return p
	}
}

// sessionID extracts {id} from /v1/sessions/{id}/...
func sessionID(path string) string {
	p := strings.TrimPrefix(path, "/"+api.Version+"/sessions/")
	if i := strings.IndexByte(p, '/'); i > 0 {
		return p[:i]
	}
	return ""
}

// handler wraps a server or the gateway: while tracing, each request of
// a traced session becomes a "<role>.<route>" span around the handler.
func (t *tracer) handler(role string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get(traceHeader)
		if !t.on.Load() || trace == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(trace, role+"."+route(r.Method, r.URL.Path), start, t.now())
	})
}

// transport wraps the gateway's outbound transport: owner round trips
// become "fleet.forward.<route>" spans and follower journal appends
// "fleet.replicate" spans, each ending when the gateway closes the
// response body. Health probes carry no trace and are not recorded.
type transport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.next.RoundTrip(req)
	}
	rt := route(req.Method, req.URL.Path)
	var trace string
	switch rt {
	case "create":
		trace = createFlight(req)
	case "follower_append":
		trace = tt.t.ownerOf(sessionID(req.URL.Path))
	default:
		trace = tt.t.ownerOf(req.URL.Host + "/" + sessionID(req.URL.Path))
	}
	if trace == "" {
		return tt.next.RoundTrip(req)
	}
	name := "fleet.forward." + rt
	if rt == "follower_append" {
		name = "fleet.replicate"
	}
	out := req.Clone(req.Context())
	out.Header.Set(traceHeader, trace)
	start := tt.t.now()
	resp, err := tt.next.RoundTrip(out)
	if err != nil {
		tt.t.add(trace, name, start, tt.t.now())
		return nil, err
	}
	if rt == "create" {
		// Learn the backend session id so later calls are attributed.
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			tt.t.add(trace, name, start, tt.t.now())
			return nil, err
		}
		var created api.SessionResponse
		if json.Unmarshal(raw, &created) == nil && created.ID != "" {
			tt.t.setOwner(req.URL.Host+"/"+created.ID, trace)
		}
		resp.Body = io.NopCloser(bytes.NewReader(raw))
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { tt.t.add(trace, name, start, tt.t.now()) }}
	return resp, nil
}

// createFlight reads the flight name from a session-create body without
// consuming it.
func createFlight(req *http.Request) string {
	if req.GetBody == nil {
		return ""
	}
	body, err := req.GetBody()
	if err != nil {
		return ""
	}
	defer body.Close()
	var sr api.SessionRequest
	if json.NewDecoder(body).Decode(&sr) != nil {
		return ""
	}
	return sr.Flight
}

// spanBody ends a transport span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
