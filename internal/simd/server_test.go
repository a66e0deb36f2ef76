package simd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netspec"
	"repro/internal/runner"
)

func postJob(t *testing.T, ts *httptest.Server, body string) (int, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var st Status
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decoding status: %v\n%s", err, data)
		}
	}
	return resp.StatusCode, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: HTTP %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	event string
	data  []byte
}

// streamEvents consumes /v1/jobs/{id}/events until the server closes
// the stream and returns every frame in order. A non-nil opened runs
// once the first frame is in; the handler sends it after subscribing,
// so from then on no frame of the job can be missed.
func streamEvents(t *testing.T, ts *httptest.Server, id string, opened func()) []sseFrame {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			frames = append(frames, cur)
			cur = sseFrame{}
			if len(frames) == 1 && opened != nil {
				opened()
			}
		}
	}
	return frames
}

// servedResult reads a job's result back as compact raw JSON, so no
// float re-encoding can launder a difference.
func servedResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	if err := json.Compact(&served, raw.Result); err != nil {
		t.Fatal(err)
	}
	return served.Bytes()
}

// serialResult is the in-process serial reference run of req, with
// snapshots off, as JSON.
func serialResult(t *testing.T, req Request) []byte {
	t.Helper()
	ref, err := Run(context.Background(), req, runner.Config{Workers: runner.Serial})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func specJSON(t *testing.T) string {
	t.Helper()
	enc, err := json.Marshal(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	return string(enc)
}

func TestServerJobRoundTrip(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: runner.Serial, SnapshotSlots: 512})
	defer e.Close()
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"spec": %s, "seeds": {"first": 1, "count": 3}, "slots": 4096}`, specJSON(t))
	code, st := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", code)
	}

	// The SSE stream must end with an authoritative terminal frame.
	frames := streamEvents(t, ts, st.ID, nil)
	if len(frames) == 0 {
		t.Fatal("no SSE frames")
	}
	if frames[0].event != "state" {
		t.Fatalf("first frame %q, want the catch-up state", frames[0].event)
	}
	var final StateEvent
	if err := json.Unmarshal(frames[len(frames)-1].data, &final); err != nil {
		t.Fatalf("terminal frame: %v", err)
	}
	if frames[len(frames)-1].event != "state" || final.State != StateDone {
		t.Fatalf("terminal frame %s %+v, want state/done", frames[len(frames)-1].event, final)
	}

	got := getStatus(t, ts, st.ID)
	if got.State != StateDone || got.Result == nil {
		t.Fatalf("status after stream %+v, want done with result", got)
	}
	if len(got.Result.Points) != 1 || len(got.Result.Points[0].Replicas) != 3 {
		t.Fatalf("result shape %+v, want 1 point x 3 replicas", got.Result)
	}

	// Resubmit: 200 (not 202) and cached.
	code, st2 := postJob(t, ts, body)
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("resubmit: HTTP %d cached=%v, want 200 cached", code, st2.Cached)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("stats %+v, want hits=1 misses=1", stats.Cache)
	}
	if stats.Jobs[StateDone] != 2 {
		t.Fatalf("stats count %d done jobs, want 2", stats.Jobs[StateDone])
	}
}

func TestServerErrors(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: runner.Serial})
	defer e.Close()
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", `{`, http.StatusBadRequest},
		{"unknown field", `{"sped": {}}`, http.StatusBadRequest},
		{"no spec", `{"slots": 100}`, http.StatusUnprocessableEntity},
		{"invalid spec", `{"spec": {"piconets": [{"slaves": 9}]}, "slots": 100}`, http.StatusUnprocessableEntity},
	} {
		if code, _ := postJob(t, ts, tc.body); code != tc.want {
			t.Errorf("%s: HTTP %d, want %d", tc.name, code, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// A body past maxRequestBytes is refused with 413 before it is decoded
// in full; the same request padded to just under the cap still decodes
// and fails validation as usual.
func TestServerRejectsOversizedBody(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: runner.Serial})
	defer e.Close()
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	padded := func(n int) string {
		const head, tail = `{"slots": 100`, `}`
		return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
	}
	if code, _ := postJob(t, ts, padded(maxRequestBytes)); code != http.StatusUnprocessableEntity {
		t.Fatalf("body at the cap: HTTP %d, want %d", code, http.StatusUnprocessableEntity)
	}
	if code, _ := postJob(t, ts, padded(maxRequestBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over the cap: HTTP %d, want %d", code, http.StatusRequestEntityTooLarge)
	}
}

// Requests past the replica or horizon budget are refused with 422 —
// including a settle horizon that would wrap the time axis — and the
// server goes on serving.
func TestServerRequestBudget(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: runner.Serial})
	defer e.Close()
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	spec := specJSON(t)
	for _, tc := range []struct{ name, shape string }{
		{"seeds", fmt.Sprintf(`"seeds": {"first": 1, "count": %d}, "slots": 100`, maxReplicas+1)},
		{"seeds at max int", `"seeds": {"first": 1, "count": 9223372036854775807}, "slots": 100`},
		{"slots", fmt.Sprintf(`"slots": %d`, maxHorizonSlots+1)},
		{"settle plus slots", fmt.Sprintf(`"slots": %d, "settle_slots": %d`, maxHorizonSlots/2+1, maxHorizonSlots/2)},
		{"settle wraps sim.Slots", `"slots": 100, "settle_slots": 14757395258967642`},
		{"slots wrap the sum", `"slots": 18446744073709551615, "settle_slots": 2`},
	} {
		body := fmt.Sprintf(`{"spec": %s, %s}`, spec, tc.shape)
		if code, _ := postJob(t, ts, body); code != http.StatusUnprocessableEntity {
			t.Errorf("%s: HTTP %d, want 422", tc.name, code)
		}
	}
	points := "[" + strings.TrimSuffix(strings.Repeat(spec+",", 65), ",") + "]"
	if code, _ := postJob(t, ts, fmt.Sprintf(`{"points": %s, "seeds": {"first": 1, "count": 64}, "slots": 100}`, points)); code != http.StatusUnprocessableEntity {
		t.Errorf("65 points × 64 seeds: HTTP %d, want 422", code)
	}

	code, st := postJob(t, ts, fmt.Sprintf(`{"spec": %s, "seeds": {"first": 1, "count": 2}, "slots": 200}`, spec))
	if code != http.StatusAccepted {
		t.Fatalf("in-budget request after the refusals: HTTP %d", code)
	}
	waitFor(t, "the in-budget job", func() bool { return getStatus(t, ts, st.ID).State == StateDone })
}

// TestRequestBudgetAdmitsShippedShapes keeps the budget above every
// request shape the repository ships: the example specs at the horizons
// their README submits, the btbench service workload's fresh and fork
// campaigns, and the service tests' long blocker job.
func TestRequestBudgetAdmitsShippedShapes(t *testing.T) {
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found (%v)", err)
	}
	var specs []netspec.Spec
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var spec netspec.Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		for _, req := range []Request{
			{Spec: &spec, Seeds: SeedRange{First: 1, Count: 4}, Slots: 20_000},
			{Spec: &spec, Seeds: SeedRange{First: 1, Count: 4}, Slots: 20_000, SettleSlots: 4000, Fork: true},
			{Spec: &spec, Seeds: SeedRange{First: 1, Count: 2}, Slots: 2000},
			{Spec: &spec, Seeds: SeedRange{First: 1, Count: 2}, Slots: 2000, SettleSlots: 20_000, Fork: true},
		} {
			if _, err := req.normalized(); err != nil {
				t.Errorf("shipped shape refused: %v", err)
			}
		}
	}
	if _, err := blockerReq().normalized(); err != nil {
		t.Errorf("blocker job refused: %v", err)
	}
	// 64 points × 64 seeds over the full horizon sit exactly at both caps.
	atCaps := Request{Points: make([]netspec.Spec, 64), Seeds: SeedRange{Count: 64}, Slots: maxHorizonSlots - 1, SettleSlots: 1}
	for i := range atCaps.Points {
		atCaps.Points[i] = tinySpec()
	}
	if _, err := atCaps.normalized(); err != nil {
		t.Errorf("request at both caps refused: %v", err)
	}
}

func TestServerCancel(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: runner.Serial})
	defer e.Close()
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"spec": %s, "seeds": {"first": 900, "count": 1}, "slots": 5000000}`, specJSON(t))
	code, st := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d, want 202", resp.StatusCode)
	}
	waitFor(t, "cancellation", func() bool { return getStatus(t, ts, st.ID).State == StateCanceled })
}

// TestServerCampaignDeterminism is the service's determinism pin: a
// campaign submitted over HTTP and run on a parallel worker pool
// returns a result byte-identical to the same campaign run in-process
// on the serial reference path. This is the contract that makes the
// result cache — and cross-machine result comparison — sound.
func TestServerCampaignDeterminism(t *testing.T) {
	e := New(Options{MaxJobs: 1, Workers: 4})
	defer e.Close()
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	req := Request{
		Points: []netspec.Spec{
			tinySpec(),
			{
				Piconets:  []netspec.Piconet{{Slaves: 1}, {Slaves: 1}},
				Traffic:   []netspec.Traffic{{Kind: netspec.TrafficBulk, Piconet: netspec.AllPiconets}},
				Placement: &netspec.Placement{Kind: netspec.PlaceGrid, RangeM: 12, SpacingM: 10},
			},
		},
		Seeds:       SeedRange{First: 3, Count: 4},
		Slots:       3000,
		SettleSlots: 64,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, st := postJob(t, ts, string(body))
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitFor(t, "campaign completion", func() bool { return getStatus(t, ts, st.ID).State == StateDone })

	served, want := servedResult(t, ts, st.ID), serialResult(t, req)
	if !bytes.Equal(served, want) {
		t.Fatalf("served campaign diverged from the in-process serial reference:\n  served: %s\n  serial: %s", served, want)
	}
}

// TestServerSnapshotsFromCampaignReplica pins where live snapshots come
// from: the campaign's own first replica (point 0, first seed; fork
// seed 0 when forked), publishing its running window once per period.
// Fresh and forked, the served result stays byte-identical to the
// serial in-process run with snapshots off, exactly one replica
// publishes, and over a horizon of whole periods the last snapshot
// frame is byte-identical to that replica's entry in the result.
func TestServerSnapshotsFromCampaignReplica(t *testing.T) {
	const period = 512
	for _, fork := range []bool{false, true} {
		t.Run(fmt.Sprintf("fork=%v", fork), func(t *testing.T) {
			e := New(Options{MaxJobs: 1, Workers: 2, SnapshotSlots: period})
			defer e.Close()
			ts := httptest.NewServer(e.Handler())
			defer ts.Close()

			// Poisson pumps reach the quiescent slot edges a fork
			// capture needs; a saturating bulk pump may never.
			wider := forkSpec()
			wider.Piconets = append(wider.Piconets, netspec.Piconet{Slaves: 2})
			req := Request{
				Points:      []netspec.Spec{forkSpec(), wider},
				Seeds:       SeedRange{First: 3, Count: 3},
				Slots:       4 * period,
				SettleSlots: 256,
				Fork:        fork,
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			// The blocker holds the only runner slot until the
			// campaign's event stream is open, so no frame goes unseen.
			blocker, err := e.Submit(blockerReq())
			if err != nil {
				t.Fatal(err)
			}
			code, st := postJob(t, ts, string(body))
			if code != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", code)
			}
			var snaps [][]byte
			for _, f := range streamEvents(t, ts, st.ID, blocker.Cancel) {
				if f.event == "snapshot" {
					snaps = append(snaps, f.data)
				}
			}
			if got := getStatus(t, ts, st.ID); got.State != StateDone {
				t.Fatalf("campaign ended %s (%s), want done", got.State, got.Error)
			}
			if want := int(req.Slots / period); len(snaps) != want {
				t.Fatalf("%d snapshot frames, want %d: one per period from one replica", len(snaps), want)
			}

			served, want := servedResult(t, ts, st.ID), serialResult(t, req)
			if !bytes.Equal(served, want) {
				t.Fatalf("served campaign diverged from the serial run without snapshots:\n  served: %s\n  serial: %s", served, want)
			}
			var res struct {
				Points []struct {
					Replicas []json.RawMessage `json:"replicas"`
				} `json:"points"`
			}
			if err := json.Unmarshal(served, &res); err != nil {
				t.Fatal(err)
			}
			if last, first := snaps[len(snaps)-1], []byte(res.Points[0].Replicas[0]); !bytes.Equal(last, first) {
				t.Fatalf("last snapshot frame is not the first replica's result:\n  frame:   %s\n  replica: %s", last, first)
			}
		})
	}
}
