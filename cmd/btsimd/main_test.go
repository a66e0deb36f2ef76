package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/simd"
)

// TestBtsimdEndToEnd is the service smoke test: serve the real handler,
// submit the shipped example spec as a small campaign, follow its SSE
// stream to completion, read the result back, and confirm that
// resubmitting the identical campaign is answered from the cache.
func TestBtsimdEndToEnd(t *testing.T) {
	engine := simd.New(simd.Options{
		MaxJobs:       1,
		QueueDepth:    4,
		CacheSize:     8,
		Workers:       2,
		SnapshotSlots: 1000,
	})
	defer engine.Close()
	ts := httptest.NewServer(engine.Handler())
	defer ts.Close()

	spec, err := os.ReadFile("../../examples/specs/office-floor.json")
	if err != nil {
		t.Fatalf("reading example spec: %v", err)
	}
	body := fmt.Sprintf(`{"spec": %s, "seeds": {"first": 1, "count": 2}, "slots": 4000}`, spec)

	// Submit.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var st simd.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}

	// Stream SSE until the server closes the stream, then check the
	// last frame is the terminal done state.
	events, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer events.Body.Close()
	var lastEvent, lastData string
	sc := bufio.NewScanner(events.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	deadline := time.AfterFunc(60*time.Second, func() { events.Body.Close() })
	for sc.Scan() {
		line := sc.Text()
		if after, ok := strings.CutPrefix(line, "event: "); ok {
			lastEvent = after
		}
		if after, ok := strings.CutPrefix(line, "data: "); ok {
			lastData = after
		}
	}
	deadline.Stop()
	if lastEvent != "state" || !strings.Contains(lastData, `"done"`) {
		t.Fatalf("stream ended on %s frame %s, want state/done", lastEvent, lastData)
	}

	// The completed job carries the campaign result.
	final := getJSON[simd.Status](t, ts.URL+"/v1/jobs/"+st.ID)
	if final.State != simd.StateDone || final.Result == nil {
		t.Fatalf("final status %+v, want done with result", final)
	}
	if len(final.Result.Points) != 1 || len(final.Result.Points[0].Replicas) != 2 {
		t.Fatalf("result shape %+v, want 1 point x 2 replicas", final.Result)
	}

	// Resubmitting the identical campaign hits the cache: HTTP 200,
	// cached flag set, and a hit on the counters.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200\n%s", resp2.StatusCode, data)
	}
	var st2 simd.Status
	if err := json.Unmarshal(data, &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != simd.StateDone {
		t.Fatalf("resubmit status %+v, want cached done", st2)
	}

	stats := getJSON[simd.Stats](t, ts.URL+"/v1/stats")
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("stats %+v, want hits=1 misses=1", stats.Cache)
	}
}

// TestBtsimdGracefulShutdown pins the drain sequence main runs on
// SIGTERM: with a campaign mid-flight and a live SSE subscriber, Drain
// lets the job finish, the subscriber's stream ends with the terminal
// done frame rather than being severed, and the server then shuts down
// without waiting out its timeout on the stream.
func TestBtsimdGracefulShutdown(t *testing.T) {
	engine := simd.New(simd.Options{MaxJobs: 1, Workers: 2})
	ts := httptest.NewServer(engine.Handler())
	defer ts.Close()

	spec, err := os.ReadFile("../../examples/specs/office-floor.json")
	if err != nil {
		t.Fatalf("reading example spec: %v", err)
	}
	// Long enough to still be running when the drain starts.
	body := fmt.Sprintf(`{"spec": %s, "seeds": {"first": 1, "count": 1}, "slots": 300000}`, spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var st simd.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	resp.Body.Close()

	events, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer events.Body.Close()
	type streamEnd struct {
		event, data string
	}
	stream := make(chan streamEnd, 1)
	go func() {
		var lastEvent, lastData string
		sc := bufio.NewScanner(events.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if after, ok := strings.CutPrefix(line, "event: "); ok {
				lastEvent = after
			}
			if after, ok := strings.CutPrefix(line, "data: "); ok {
				lastData = after
			}
		}
		stream <- streamEnd{lastEvent, lastData}
	}()

	// The drain sequence main runs on SIGTERM.
	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := engine.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	engine.Close()

	select {
	case end := <-stream:
		if end.event != "state" || !strings.Contains(end.data, `"done"`) {
			t.Fatalf("stream ended on %s frame %s, want state/done", end.event, end.data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not close after drain")
	}
	// Intake is closed: a late submission gets 503, not a new job.
	late, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST after drain: %v", err)
	}
	late.Body.Close()
	if late.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: HTTP %d, want 503", late.StatusCode)
	}
}

// TestNewServerTimeouts pins the server main builds: bounded header
// reads and idle keep-alives, but no read or write deadline that would
// cut a long POST body or a long-lived SSE stream. The server must
// still serve the engine's handler.
func TestNewServerTimeouts(t *testing.T) {
	engine := simd.New(simd.Options{MaxJobs: 1})
	defer engine.Close()
	srv := newServer("127.0.0.1:0", engine.Handler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout=%v IdleTimeout=%v, want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout=%v ReadTimeout=%v, want none (SSE streams are long-lived)", srv.WriteTimeout, srv.ReadTimeout)
	}

	ts := httptest.NewUnstartedServer(nil)
	ts.Config = srv
	ts.Start()
	defer ts.Close()
	getJSON[simd.Stats](t, ts.URL+"/v1/stats")
}

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return v
}
