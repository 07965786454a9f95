package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"psketch/internal/sketches"
)

// source returns a Table 1 sketch's text (queueE1 resolves in one
// iteration; lazyset's ar(ar|ar) row is the multi-second definitive-NO
// used where tests need a job slow enough to observe mid-flight).
func source(t *testing.T, name, test string) string {
	t.Helper()
	b := sketches.ByName(name)
	if b == nil {
		t.Fatalf("no benchmark %q", name)
	}
	src, err := b.Source(test)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func submit(t *testing.T, ts *httptest.Server, req SubmitRequest) (JobView, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

// streamEvents reads the job's NDJSON stream to completion and returns
// every event. The stream must terminate by itself once the job does.
func streamEvents(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getMetrics(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := make(map[string]int64)
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// The happy path, end to end over HTTP: submit, stream events to the
// terminal line, read the verdict — then resubmit the identical sketch
// and require a cross-request warm hit.
func TestServiceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 2, JournalDir: dir})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	src := source(t, "queueE1", "ed(ee|dd)")
	v, code := submit(t, ts, SubmitRequest{Src: src})
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	if v.State != string(StateQueued) || v.Count != "4" || v.Target != "Main" {
		t.Fatalf("submit view %+v", v)
	}

	events := streamEvents(t, ts, v.ID)
	kinds := make(map[string]int)
	for _, e := range events {
		kinds[e.Event]++
	}
	if kinds["queued"] != 1 || kinds["started"] != 1 || kinds["done"] != 1 {
		t.Fatalf("event kinds %v: want one queued/started/done", kinds)
	}
	if kinds["span"] == 0 {
		t.Fatalf("event kinds %v: no engine spans streamed", kinds)
	}
	last := events[len(events)-1]
	if last.Event != "done" || last.State != string(StateDone) || last.Resolved == nil || !*last.Resolved {
		t.Fatalf("terminal event %+v", last)
	}

	final := getJob(t, ts, v.ID)
	if final.State != string(StateDone) || final.Resolved == nil || !*final.Resolved {
		t.Fatalf("final view %+v", final)
	}
	if final.Code == "" || final.Stats == nil || final.Stats.Iterations < 1 {
		t.Fatalf("final view missing result payload: %+v", final)
	}
	if final.Stats.WarmStart {
		t.Fatal("first job of a sketch reports warm_start")
	}

	// Second identical submission: must check the first run's context
	// out of the warm store.
	v2, code := submit(t, ts, SubmitRequest{Src: src})
	if code != http.StatusCreated {
		t.Fatalf("resubmit: status %d", code)
	}
	if v2.Hash != v.Hash {
		t.Fatalf("sketch hash drifted across submissions: %s vs %s", v2.Hash, v.Hash)
	}
	streamEvents(t, ts, v2.ID)
	final2 := getJob(t, ts, v2.ID)
	if final2.State != string(StateDone) || final2.Stats == nil || !final2.Stats.WarmStart {
		t.Fatalf("second identical job did not start warm: %+v", final2)
	}
	m := getMetrics(t, ts)
	if m["warm.hits"] < 1 {
		t.Fatalf("metrics %v: want warm.hits >= 1 after resubmission", m)
	}
	if m["jobs.done"] != 2 || m["jobs.submitted"] != 2 {
		t.Fatalf("metrics %v: want 2 submitted, 2 done", m)
	}

	// One journal per job, psktrace-compatible JSONL.
	for _, id := range []string{v.ID, v2.ID} {
		if _, err := os.Stat(filepath.Join(dir, "job-"+id+".jsonl")); err != nil {
			t.Fatalf("job journal missing: %v", err)
		}
	}
}

// Admission control: with one worker and a depth-1 queue, a burst of
// slow submissions must hit 429 + Retry-After once the worker is busy
// and the queue holds its one admitted job.
func TestServiceQueueFullReturns429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Batch: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := source(t, "lazyset", "ar(ar|ar)")
	if _, code := submit(t, ts, SubmitRequest{Src: slow}); code != http.StatusCreated {
		t.Fatalf("first submit: status %d", code)
	}
	got429 := false
	for i := 0; i < 20 && !got429; i++ {
		body, _ := json.Marshal(SubmitRequest{Src: slow})
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		}
		resp.Body.Close()
	}
	if !got429 {
		t.Fatal("queue never reported full despite 20 submissions against a busy depth-1 server")
	}
	if m := getMetrics(t, ts); m["jobs.rejected_full"] < 1 {
		t.Fatalf("metrics %v: want jobs.rejected_full >= 1", m)
	}
	// Unblock the drain deferred above quickly.
	for _, j := range s.Jobs() {
		j.Cancel()
	}
}

// DELETE cancels a running job cooperatively, and drain (a) finishes
// by itself once jobs end, (b) rejects new submissions with 503.
func TestServiceCancelAndDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := source(t, "lazyset", "ar(ar|ar)")
	v, code := submit(t, ts, SubmitRequest{Src: slow})
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}

	// The event stream is the synchronization point: cancel only after
	// "started" so the cooperative-abort path is the one exercised.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lastEvent Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		lastEvent = e
		if e.Event == "started" {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
			dresp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if dresp.StatusCode != http.StatusAccepted {
				t.Fatalf("DELETE: status %d", dresp.StatusCode)
			}
			dresp.Body.Close()
		}
	}
	if lastEvent.Event != "done" || lastEvent.State != string(StateCanceled) {
		t.Fatalf("terminal event %+v, want canceled", lastEvent)
	}
	if st := getJob(t, ts, v.ID).State; st != string(StateCanceled) {
		t.Fatalf("state %s, want canceled", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, code := submit(t, ts, SubmitRequest{Src: slow}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: status %d, want 503", code)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health map[string]string
	json.NewDecoder(hresp.Body).Decode(&health)
	if health["status"] != "draining" {
		t.Fatalf("healthz %v, want draining", health)
	}
}

// A job's wall-clock budget: timeout_ms is honored and the terminal
// state is failed (budget exceeded is the server refusing to finish,
// not the client walking away).
func TestServiceJobTimeout(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := source(t, "lazyset", "ar(ar|ar)")
	v, code := submit(t, ts, SubmitRequest{Src: slow, Options: JobOptions{TimeoutMS: 50}})
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	streamEvents(t, ts, v.ID)
	final := getJob(t, ts, v.ID)
	if final.State != string(StateFailed) {
		t.Fatalf("state %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "wall-clock budget") {
		t.Fatalf("error %q does not name the budget", final.Error)
	}
}

// Client mistakes map to client status codes.
func TestServiceBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	valid, err := json.Marshal(source(t, "queueE1", "ed(ee|dd)"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty source", `{"src":""}`, http.StatusBadRequest},
		{"parse error", `{"src":"void f() { !!! }"}`, http.StatusBadRequest},
		{"no harness", `{"src":"void f() { }"}`, http.StatusBadRequest},
		{"unknown field", `{"sauce":"x"}`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
		// A valid sketch with an option the engine no longer has.
		{"unknown option", `{"src":` + string(valid) + `,"options":{"no_pipeline":true}}`, http.StatusBadRequest},
		{"unknown option no_por", `{"src":` + string(valid) + `,"options":{"no_por":true}}`, http.StatusBadRequest},
		{"unknown option no_symmetry", `{"src":` + string(valid) + `,"options":{"no_symmetry":true}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// The ablation flag: with the warm cache disabled, identical
// resubmissions stay cold and no warm.* counters register.
func TestServiceNoWarmCacheAblation(t *testing.T) {
	s := New(Config{Workers: 1, NoWarmCache: true})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	src := source(t, "queueE1", "ed(ee|dd)")
	for i := 0; i < 2; i++ {
		v, code := submit(t, ts, SubmitRequest{Src: src})
		if code != http.StatusCreated {
			t.Fatalf("submit %d: status %d", i, code)
		}
		streamEvents(t, ts, v.ID)
		if final := getJob(t, ts, v.ID); final.Stats == nil || final.Stats.WarmStart {
			t.Fatalf("run %d with -no-warm-cache: %+v", i, final)
		}
	}
	if m := getMetrics(t, ts); m["warm.hits"] != 0 {
		t.Fatalf("metrics %v: warm.hits nonzero under ablation", m)
	}
}

// The queue itself, at the unit level: batched pulls drain in FIFO
// order, the cap rejects, Close delivers the backlog then wakes
// blocked workers with nil.
func TestJobQueueBatching(t *testing.T) {
	q := newJobQueue(3)
	for i := 0; i < 3; i++ {
		if err := q.Push(&Job{ID: fmt.Sprintf("j%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push(&Job{ID: "j3"}); err != errQueueFull {
		t.Fatalf("Push over cap = %v, want errQueueFull", err)
	}
	batch := q.PullBatch(2)
	if len(batch) != 2 || batch[0].ID != "j0" || batch[1].ID != "j1" {
		t.Fatalf("batch %v, want [j0 j1]", batch)
	}
	q.Close()
	if err := q.Push(&Job{ID: "j4"}); err != errQueueClosed {
		t.Fatalf("Push after close = %v, want errQueueClosed", err)
	}
	if batch := q.PullBatch(8); len(batch) != 1 || batch[0].ID != "j2" {
		t.Fatalf("backlog after close = %v, want [j2]", batch)
	}
	if batch := q.PullBatch(8); batch != nil {
		t.Fatalf("drained closed queue returned %v, want nil", batch)
	}
}
