package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"psketch"
	"psketch/internal/obs"
	"psketch/internal/service"
)

// serviceWorkload is psketchd over loopback HTTP: the service runs in
// process with one worker, and two closed-loop clients each submit a job,
// follow its NDJSON events to the terminal event and fetch the verdict.
// Each client owns one of serviceSets, so every job after a sketch's
// first is a warm start, independent of timing.
type serviceWorkload struct {
	sets     [][]*row
	seed     int64
	srv      *server
	buildDir string
}

func newService(a *answers, seed int64, buildDir string) (*serviceWorkload, error) {
	w := &serviceWorkload{seed: seed, buildDir: buildDir}
	for _, keys := range serviceSets {
		rows, err := loadRows(a, keys)
		if err != nil {
			return nil, err
		}
		w.sets = append(w.sets, rows)
	}
	srv, err := startServer("")
	if err != nil {
		return nil, err
	}
	w.srv = srv
	return w, nil
}

func (w *serviceWorkload) jobLayer() string { return layerService }

func (w *serviceWorkload) close() { w.srv.close() }

// server is an in-process psketchd on a loopback listener.
type server struct {
	svc  *service.Server
	hs   *http.Server
	base string
	done chan struct{} // closed once Serve returned
}

// startServer starts a one-worker psketchd. A non-empty journalDir
// makes the service write one JSONL journal per job there.
func startServer(journalDir string) (*server, error) {
	svc := service.New(service.Config{Workers: 1, JournalDir: journalDir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Drain(context.Background()) // no job was admitted
		return nil, err
	}
	s := &server{
		svc:  svc,
		hs:   &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the listener and waits for Serve to return, then drains
// the service, joining its worker.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // no client is connected any more
	<-s.done
	_ = s.svc.Drain(ctx) // the queue is empty: the clients waited for every job
}

// svcJob is one HTTP job as the client saw it.
type svcJob struct {
	row    *row
	view   service.JobView
	admit  time.Duration // POST round trip
	events obs.SpanID    // the bench.http.events span, under tracing
}

func (w *serviceWorkload) run(budget time.Duration, rec *recorder) (*region, error) {
	srv := w.srv
	var journals string
	if rec != nil {
		// The traced region runs on its own journaling server, which
		// starts cold like the untraced one.
		if err := os.MkdirAll(w.buildDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(w.buildDir, "journals-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		journals = dir
		if srv, err = startServer(dir); err != nil {
			return nil, err
		}
		defer srv.close()
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: len(w.sets)}}
	defer hc.CloseIdleConnections()
	m0, err := getMetrics(hc, srv.base)
	if err != nil {
		return nil, err
	}

	type done struct {
		job svcJob
		res jobResult
	}
	perClient := make([][]done, len(w.sets))
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for ci, set := range w.sets {
		wg.Add(1)
		go func(ci int, set []*row) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.seed*int64(len(w.sets)) + int64(ci)))
			for time.Now().Before(deadline) {
				for _, i := range rng.Perm(len(set)) {
					if !time.Now().Before(deadline) {
						break
					}
					j, res := httpJob(hc, srv.base, set[i], rec)
					perClient[ci] = append(perClient[ci], done{j, res})
				}
			}
		}(ci, set)
	}
	wg.Wait()
	r := &region{wall: time.Since(start)}

	m1, err := getMetrics(hc, srv.base)
	if err != nil {
		return nil, err
	}
	var jobs []svcJob
	for _, ds := range perClient {
		for _, d := range ds {
			jobs = append(jobs, d.job)
			r.jobs = append(r.jobs, d.res)
		}
	}
	r.layer = serviceLayer(jobs, m0, m1)
	if rec != nil {
		if err := graftJournals(rec, journals, jobs, r.jobs); err != nil {
			return nil, err
		}
		if err := frontendLayer(r, jobs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// httpJob runs one job through the HTTP API: POST, follow the event
// stream to its terminal event, GET the verdict.
func httpJob(hc *http.Client, base string, r *row, rec *recorder) (svcJob, jobResult) {
	tr := rec.tracer()
	j := svcJob{row: r}
	jsp := tr.Start("bench.job", 0)
	t0 := time.Now()
	sp := tr.Start("bench.http.submit", jsp.ID())
	err := submit(hc, base, r, &j.view)
	j.admit = time.Since(t0)
	sp.End()
	if err == nil {
		sp = tr.Start("bench.http.events", jsp.ID())
		j.events = sp.ID()
		err = follow(hc, base+j.view.EventsURL)
		sp.End()
	}
	if err == nil {
		sp = tr.Start("bench.http.get", jsp.ID())
		err = getJSON(hc, base+"/v1/jobs/"+j.view.ID, &j.view)
		sp.End()
	}
	res := jobResult{key: r.key.String(), latency: time.Since(t0)}
	endJob(jsp, res.key)
	if err != nil {
		res.err = jobError(res.key, err, false)
		return j, res
	}
	v := j.view
	res.check = func() error {
		if v.State != string(service.StateDone) || v.Resolved == nil {
			return fmt.Errorf("%s: job %s ended %s: %s", r.key, v.ID, v.State, v.Error)
		}
		if *v.Resolved != r.want.Resolvable {
			return fmt.Errorf("%s: job %s resolved=%v, want %v", r.key, v.ID, *v.Resolved, r.want.Resolvable)
		}
		return nil
	}
	return j, res
}

func submit(hc *http.Client, base string, r *row, view *service.JobView) error {
	o := r.opts
	body, err := json.Marshal(service.SubmitRequest{
		Src:    r.src,
		Target: "Main",
		Options: service.JobOptions{
			IntWidth: o.IntWidth, HoleWidth: o.HoleWidth, LoopBound: o.LoopBound,
			MaxRepeat: o.MaxRepeat, Quadratic: o.Encoding == psketch.EncodeQuadratic,
			MCMaxStates: o.MCMaxStates, Proof: o.Proof,
			// A lone worker would otherwise run each job at GOMAXPROCS.
			Parallelism: 1,
			TimeoutMS:   jobTimeout.Milliseconds(),
		},
	})
	if err != nil {
		return err
	}
	resp, err := hc.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decode(resp, http.StatusCreated, view)
}

// follow reads a job's NDJSON event stream up to its terminal event.
func follow(hc *http.Client, url string) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("event stream: %w", err)
		}
		if ev.Event == "done" {
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream %s ended before the terminal event", url)
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	return decode(resp, http.StatusOK, v)
}

func decode(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return err
	}
	_, err := io.Copy(io.Discard, resp.Body)
	return err
}

func getMetrics(hc *http.Client, base string) (map[string]int64, error) {
	m := map[string]int64{}
	err := getJSON(hc, base+"/metrics", &m)
	return m, err
}

// serviceLayer derives the service and warm-store metrics from the jobs'
// timestamps and the server's /metrics counters before and after.
func serviceLayer(jobs []svcJob, m0, m1 map[string]int64) map[string]float64 {
	n := float64(len(jobs))
	var admit, wait, run time.Duration
	for _, j := range jobs {
		admit += j.admit
		v := j.view
		if v.Started != nil {
			wait += v.Started.Sub(v.Submitted)
			if v.Finished != nil {
				run += v.Finished.Sub(*v.Started)
			}
		}
	}
	delta := func(k string) float64 { return float64(m1[k] - m0[k]) }
	hits, misses := delta("warm.hits"), delta("warm.misses")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	rejected := delta("jobs.rejected_full") + delta("jobs.rejected_draining") + delta("jobs.rejected_invalid")
	return map[string]float64{
		"service.admit_ms":      ms(admit) / n,
		"service.queue_wait_ms": ms(wait) / n,
		"service.run_ms":        ms(run) / n,
		"service.rejected":      rejected / n,
		"warm.hits":             hits / n,
		"warm.misses":           misses / n,
		"warm.evictions":        delta("warm.evictions") / n,
		"warm.hit_ratio":        ratio,
		"warm.bytes":            float64(m1["warm.bytes"]),
	}
}

// graftJournals reads each traced job's journal, fills the job's work
// counters from its metrics trailer, and re-parents its engine spans
// under the job's bench.http.events span, shifted onto the benchmark
// tracer's clock (the job's tracer starts when the job starts running).
func graftJournals(rec *recorder, dir string, jobs []svcJob, res []jobResult) error {
	epoch := rec.tracer().Epoch()
	for i, j := range jobs {
		if res[i].err != nil {
			continue
		}
		f, err := os.Open(filepath.Join(dir, "job-"+j.view.ID+".jsonl"))
		if err != nil {
			return err
		}
		jl, err := obs.ReadJournal(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("journal of job %s: %w", j.view.ID, err)
		}
		m := jl.Metrics
		res[i].c = counters{
			Iterations: int(m["cegis.iterations"]),
			SATConfl:   m["sat.conflicts"], SATVars: int(m["sat.vars"]), SATClauses: int(m["sat.clauses"]),
			ProjHits: m["proj.hits"], ProjMisses: m["proj.misses"],
			MCStates: int(m["mc.states"]), MCTrans: int(m["mc.trans"]),
			VisitedBytes: uint64(m["mc.visited_bytes"]),
			ProofLemmas:  int(m["proof.lemmas"]), ProofChecked: int(m["proof.checked"]),
			synthTotal: time.Duration(m["cegis.total_ns"]),
		}
		if j.view.Started == nil {
			continue
		}
		shift := int64(j.view.Started.Sub(epoch))
		base := obs.SpanID(i+1) << 40 // above every benchmark span ID
		for _, s := range jl.Spans {
			s.ID += base
			if s.Parent == 0 {
				s.Parent = j.events
			} else {
				s.Parent += base
			}
			s.Start += shift
			rec.Emit(s)
		}
	}
	return nil
}

// frontendLayer fills the front-end metrics, which psketchd does not
// trace: each distinct sketch is compiled once more after the timed
// region, and the figures are weighted by the jobs that ran it.
func frontendLayer(r *region, jobs []svcJob) error {
	type fe struct {
		ms    float64
		holes int
	}
	seen := map[*row]fe{}
	var compileMS float64
	for i, j := range jobs {
		f, ok := seen[j.row]
		if !ok {
			t0 := time.Now()
			sk, err := psketch.Compile(j.row.src, "Main", j.row.opts)
			if err != nil {
				return err
			}
			f = fe{ms(time.Since(t0)), sk.Holes()}
			seen[j.row] = f
		}
		compileMS += f.ms
		r.jobs[i].c.Holes = f.holes
	}
	r.layer["frontend.compile_ms"] = compileMS / float64(len(jobs))
	return nil
}
