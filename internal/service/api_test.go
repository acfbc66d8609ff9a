package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// apiClient wraps an httptest server over a service handler.
type apiClient struct {
	t   *testing.T
	svc *Service
	srv *httptest.Server
}

func newAPIClient(t *testing.T, budget int) *apiClient {
	t.Helper()
	s := newTestService(t, budget, nil)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return &apiClient{t: t, svc: s, srv: srv}
}

// holdBudget occupies n ranks of the scheduler budget directly, so jobs
// submitted afterwards are deterministically stuck in the queue until
// release is called. Tests only.
func (c *apiClient) holdBudget(n int) (release func()) {
	c.svc.mu.Lock()
	c.svc.running["test-hold"] = n
	c.svc.used += n
	c.svc.mu.Unlock()
	return func() {
		c.svc.mu.Lock()
		if held, ok := c.svc.running["test-hold"]; ok {
			c.svc.used -= held
			delete(c.svc.running, "test-hold")
			c.svc.admitLocked()
		}
		c.svc.mu.Unlock()
	}
}

func (c *apiClient) do(method, path string, body any) (int, []byte) {
	c.t.Helper()
	var rd *bytes.Reader
	if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, rd)
	if err != nil {
		c.t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.Bytes()
}

// triangles is a small two-community graph for inline submission.
func trianglesSpec() map[string]any {
	return map[string]any{
		"vertices": 6,
		"edges": [][3]float64{
			{0, 1, 0}, {1, 2, 0}, {0, 2, 0},
			{3, 4, 0}, {4, 5, 0}, {3, 5, 0},
			{2, 3, 0},
		},
		"ranks": 2,
	}
}

func TestAPIJobLifecycle(t *testing.T) {
	c := newAPIClient(t, 4)

	status, body := c.do("POST", "/v1/jobs", trianglesSpec())
	if status != http.StatusCreated {
		t.Fatalf("submit: %d %s", status, body)
	}
	var v View
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("submit body: %v", err)
	}
	if v.ID == "" || v.GraphFP == "" || v.ConfigFP == "" {
		t.Fatalf("incomplete view: %s", body)
	}

	// Poll status until done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body = c.do("GET", "/v1/jobs/"+v.ID, nil)
		if status != http.StatusOK {
			t.Fatalf("get: %d %s", status, body)
		}
		var cur View
		json.Unmarshal(body, &cur) //nolint:errcheck
		if cur.State == StateDone {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job settled %s: %s", cur.State, body)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Result, with and without the assignment.
	status, body = c.do("GET", "/v1/jobs/"+v.ID+"/result", nil)
	if status != http.StatusOK {
		t.Fatalf("result: %d %s", status, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("result body: %v", err)
	}
	if len(res.Assignment) != 6 || res.Communities != 2 {
		t.Fatalf("unexpected result: %s", body)
	}
	// Bodies are compact: one line, the encoder's trailing newline only.
	if strings.Count(string(body), "\n") != 1 {
		t.Fatalf("result body is not compact JSON: %q", body)
	}
	status, body = c.do("GET", "/v1/jobs/"+v.ID+"/result?assignment=0", nil)
	if status != http.StatusOK || strings.Contains(string(body), "assignment") {
		t.Fatalf("assignment=0 still carries labels: %d %s", status, body)
	}

	// Duplicate → served from cache over the API too.
	status, body = c.do("POST", "/v1/jobs", trianglesSpec())
	if status != http.StatusCreated {
		t.Fatalf("dup submit: %d %s", status, body)
	}
	var dup View
	json.Unmarshal(body, &dup) //nolint:errcheck
	if dup.State != StateDone || !dup.CacheHit {
		t.Fatalf("duplicate not a cache hit: %s", body)
	}

	// List shows both, stats add up.
	status, body = c.do("GET", "/v1/jobs", nil)
	var list []View
	if status != http.StatusOK || json.Unmarshal(body, &list) != nil || len(list) != 2 {
		t.Fatalf("list: %d %s", status, body)
	}
	status, body = c.do("GET", "/v1/stats", nil)
	var st Stats
	if status != http.StatusOK || json.Unmarshal(body, &st) != nil {
		t.Fatalf("stats: %d %s", status, body)
	}
	// The duplicate counts as a cache hit, not a completed run.
	if st.Submitted != 2 || st.Completed != 1 || st.CacheHits != 1 || st.WorldsLaunched != 1 {
		t.Fatalf("stats mismatch: %s", body)
	}
}

func TestAPIErrors(t *testing.T) {
	c := newAPIClient(t, 2)
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{"POST", "/v1/jobs", map[string]any{"ranks": 1}, http.StatusBadRequest},            // no graph
		{"POST", "/v1/jobs", map[string]any{"bogus_field": 1}, http.StatusBadRequest},      // unknown field
		{"POST", "/v1/jobs", map[string]any{"coloring": true}, http.StatusBadRequest},      // retired field
		{"GET", "/v1/jobs/j-missing", nil, http.StatusNotFound},                            // unknown job
		{"GET", "/v1/jobs/j-missing/result", nil, http.StatusNotFound},                     //
		{"DELETE", "/v1/jobs/j-missing", nil, http.StatusNotFound},                         //
		{"GET", "/v1/jobs/j-missing/events", nil, http.StatusNotFound},                     //
		{"POST", "/v1/jobs", map[string]any{"graph_path": "/nope"}, http.StatusBadRequest}, // unreadable graph
		{"POST", "/v1/jobs", paddedSpec(maxSubmitBytes), http.StatusBadRequest},            // largest body read: bad path
		{"POST", "/v1/jobs", paddedSpec(maxSubmitBytes + 1), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		status, body := c.do(tc.method, tc.path, tc.body)
		if status != tc.want {
			t.Errorf("%s %s: status %d (want %d): %s", tc.method, tc.path, status, tc.want, body)
		}
		if !json.Valid(body) {
			t.Errorf("%s %s: non-JSON error body %q", tc.method, tc.path, body)
		}
	}

	// Result of an unfinished job → 409; abort of a live job → 202. Checked
	// on a job that is deterministically still queued: it sits behind a
	// long-running one that holds the whole budget.
	path, _ := writeGraph(t, 300, 1500, 29)
	// Occupy the whole budget so the job below is deterministically queued
	// for the duration of the checks.
	release := c.holdBudget(2)
	defer release()
	status, body := c.do("POST", "/v1/jobs", map[string]any{"graph_path": path, "ranks": 2, "seed": 2, "variant": "tc"})
	if status != http.StatusCreated {
		t.Fatalf("submit queued: %d %s", status, body)
	}
	var v View
	json.Unmarshal(body, &v) //nolint:errcheck
	if status, body = c.do("GET", "/v1/jobs/"+v.ID+"/result", nil); status != http.StatusConflict {
		t.Errorf("result of unfinished job: %d %s (want 409)", status, body)
	}
	if status, body = c.do("DELETE", "/v1/jobs/"+v.ID, nil); status != http.StatusAccepted {
		t.Errorf("abort: %d %s (want 202)", status, body)
	}
	// A second abort of the now-terminal job conflicts.
	if status, body = c.do("DELETE", "/v1/jobs/"+v.ID, nil); status != http.StatusConflict {
		t.Errorf("double abort: %d %s (want 409)", status, body)
	}
}

// paddedSpec is a well-formed submission of exactly n bytes, naming a graph
// path no file system accepts.
func paddedSpec(n int) []byte {
	const head, tail = `{"graph_path":"`, `"}`
	return []byte(head + strings.Repeat("x", n-len(head)-len(tail)) + tail)
}

// The retired frontier knobs and the retired "coloring" sweep switch are
// unknown keys, so strict decoding answers a typed 400 naming the key. (Stored job.json records that carry them still
// load: TestServiceRecoveryAfterRestart.)
func TestAPIRetiredKeysRejected(t *testing.T) {
	c := newAPIClient(t, 2)
	for key, val := range map[string]any{"frontier": "off", "frontier_sparse_threshold": 0.5, "coloring": true} {
		t.Run(key, func(t *testing.T) {
			spec := trianglesSpec()
			spec[key] = val
			status, body := c.do("POST", "/v1/jobs", spec)
			if status != http.StatusBadRequest || !json.Valid(body) || !strings.Contains(string(body), key) {
				t.Fatalf("submit with %q: %d %s (want a 400 naming the key)", key, status, body)
			}
		})
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id, kind string
	data     Event
}

// readSSE consumes frames until a terminal event or EOF.
func readSSE(t *testing.T, r *bufio.Reader, max int) []sseEvent {
	t.Helper()
	var out []sseEvent
	cur := sseEvent{}
	for len(out) < max {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		case line == "" && cur.kind != "":
			out = append(out, cur)
			if cur.data.terminal() {
				return out
			}
			cur = sseEvent{}
		}
	}
	return out
}

// The SSE stream delivers the full lifecycle and supports Last-Event-ID
// resumption: a client reconnecting mid-stream sees exactly the events it
// missed, no duplicates, no gaps.
func TestAPIEventStreamAndResume(t *testing.T) {
	c := newAPIClient(t, 2)
	path, _ := writeGraph(t, 300, 1500, 31)
	status, body := c.do("POST", "/v1/jobs", map[string]any{"graph_path": path, "ranks": 2})
	if status != http.StatusCreated {
		t.Fatalf("submit: %d %s", status, body)
	}
	var v View
	json.Unmarshal(body, &v) //nolint:errcheck

	resp, err := http.Get(c.srv.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, bufio.NewReader(resp.Body), 10000)
	if len(events) < 3 {
		t.Fatalf("only %d events streamed", len(events))
	}
	last := events[len(events)-1]
	if last.kind != "done" {
		t.Fatalf("stream ended on %q, want done", last.kind)
	}
	for i, e := range events {
		if e.id != fmt.Sprint(i+1) {
			t.Fatalf("event %d carries SSE id %s: ids must be dense", i, e.id)
		}
		if e.kind != e.data.Kind {
			t.Fatalf("event name %q != data kind %q", e.kind, e.data.Kind)
		}
	}

	// Reconnect with Last-Event-ID halfway: the replay starts right after.
	mid := len(events) / 2
	req, _ := http.NewRequest("GET", c.srv.URL+"/v1/jobs/"+v.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", events[mid-1].id)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("resume events: %v", err)
	}
	defer resp2.Body.Close()
	replay := readSSE(t, bufio.NewReader(resp2.Body), 10000)
	if len(replay) != len(events)-mid {
		t.Fatalf("replay delivered %d events, want %d", len(replay), len(events)-mid)
	}
	if replay[0].id != events[mid].id {
		t.Fatalf("replay starts at id %s, want %s", replay[0].id, events[mid].id)
	}
}
