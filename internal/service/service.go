// Package service is psketchd's engine room: synthesis-as-a-service on
// top of the psketch library. It owns the bounded batched intake queue
// and fixed worker array (admission control, backpressure, graceful
// drain), the per-job observability plumbing (event streaming straight
// from each job's obs tracer, optional per-job journal files), and the
// cross-request warm-state cache (psketch.WarmStore) that lets repeat
// submissions of one sketch start with earlier runs' projection
// prefixes memoized. cmd/psketchd is a thin flag-parsing shell around
// Server + Handler.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psketch"
	"psketch/internal/obs"
)

// Config sizes the service. Zero fields take the documented defaults.
type Config struct {
	// Workers is the fixed worker-array size: at most this many jobs
	// synthesize concurrently (default 2). Each job additionally runs
	// its own internal parallelism, so total CPU use is roughly
	// Workers × per-job Parallelism.
	Workers int
	// QueueDepth bounds the intake queue; submissions beyond it are
	// rejected with 429 (default 64).
	QueueDepth int
	// Batch is the largest batch one worker pulls from the queue in a
	// single critical section (default 8).
	Batch int
	// JobTimeout caps any job's wall clock; per-job timeout_ms requests
	// are clamped to it (default 5m).
	JobTimeout time.Duration
	// MaxMCStates / MaxIterations cap the per-job engine budgets
	// (defaults 4,000,000 and 256).
	MaxMCStates   int
	MaxIterations int
	// MaxParallelism caps per-job engine parallelism (default
	// GOMAXPROCS); the default per-job value is MaxParallelism/Workers,
	// at least 1.
	MaxParallelism int
	// NoWarmCache disables the cross-request warm-state cache (the
	// ablation lever for measuring what warm starts buy).
	NoWarmCache bool
	// WarmBytes bounds the warm store's estimated retained memory
	// (default 256 MiB; <= 0 keeps the default — pass NoWarmCache to
	// turn the cache off).
	WarmBytes int64
	// JournalDir, when set, receives one JSONL journal per job
	// (job-<id>.jsonl, psktrace-compatible) with a metrics trailer.
	JournalDir string
	// Verbose receives server progress lines when non-nil.
	Verbose func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxMCStates <= 0 {
		c.MaxMCStates = 4_000_000
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 256
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if c.WarmBytes <= 0 {
		c.WarmBytes = 256 << 20
	}
	if c.Verbose == nil {
		c.Verbose = func(string, ...any) {}
	}
	return c
}

// RequestError is an admission failure the client caused (empty or
// unparseable sketch, unknown target); the HTTP layer maps it to 400.
type RequestError struct{ Msg string }

func (e *RequestError) Error() string { return e.Msg }

func badRequest(format string, args ...any) error {
	return &RequestError{Msg: fmt.Sprintf(format, args...)}
}

// errDraining rejects submissions once drain began; the HTTP layer maps
// it to 503.
var errDraining = errors.New("service: server is draining")

// countCacheCap bounds the cross-request |C| cache; on overflow the
// whole table is dropped (the projection cache's own idiom).
const countCacheCap = 4096

// Server runs synthesis jobs on a bounded worker pool fed by the
// batched intake queue. Build one with New, expose it with Handler,
// stop it with Drain.
type Server struct {
	cfg   Config
	met   *obs.Metrics
	warm  *psketch.WarmStore
	queue *jobQueue
	wg    sync.WaitGroup

	draining atomic.Bool

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listing
	seq    int64
	counts map[string]string // sketch hash → |C| (cross-request)

	cSubmitted, cRejectedFull, cRejectedDraining, cRejectedInvalid *obs.Counter
	cDone, cFailed, cCanceled                                      *obs.Counter
	cRunning, cQueueDepth                                          *obs.Counter
}

// New builds the server and starts its worker array.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	met := obs.NewMetrics()
	s := &Server{
		cfg:    cfg,
		met:    met,
		queue:  newJobQueue(cfg.QueueDepth),
		jobs:   make(map[string]*Job),
		counts: make(map[string]string),

		cSubmitted:        met.Counter("jobs.submitted"),
		cRejectedFull:     met.Counter("jobs.rejected_full"),
		cRejectedDraining: met.Counter("jobs.rejected_draining"),
		cRejectedInvalid:  met.Counter("jobs.rejected_invalid"),
		cDone:             met.Counter("jobs.done"),
		cFailed:           met.Counter("jobs.failed"),
		cCanceled:         met.Counter("jobs.canceled"),
		cRunning:          met.Counter("jobs.running"),
		cQueueDepth:       met.Counter("queue.depth"),
	}
	if !cfg.NoWarmCache {
		s.warm = psketch.NewWarmStore(cfg.WarmBytes, met)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics exposes the server's registry (the /metrics endpoint; the
// warm store's counters live here too).
func (s *Server) Metrics() *obs.Metrics { return s.met }

// WarmStats returns the warm store's counters (zero when disabled).
func (s *Server) WarmStats() psketch.WarmStats { return s.warm.Stats() }

// jobOptions maps the request's engine surface onto psketch.Options,
// clamping every budget to the server's caps.
func (s *Server) jobOptions(o JobOptions) (psketch.Options, time.Duration) {
	opts := psketch.Options{
		IntWidth:           o.IntWidth,
		HoleWidth:          o.HoleWidth,
		LoopBound:          o.LoopBound,
		MaxRepeat:          o.MaxRepeat,
		MaxIterations:      o.MaxIterations,
		MCMaxStates:        o.MCMaxStates,
		TracesPerIteration: o.Traces,
		Parallelism:        o.Parallelism,
		Proof:              o.Proof,
		Warm:               s.warm,
	}
	if o.Quadratic {
		opts.Encoding = psketch.EncodeQuadratic
	}
	if opts.MaxIterations <= 0 || opts.MaxIterations > s.cfg.MaxIterations {
		opts.MaxIterations = s.cfg.MaxIterations
	}
	if opts.MCMaxStates <= 0 || opts.MCMaxStates > s.cfg.MaxMCStates {
		opts.MCMaxStates = s.cfg.MaxMCStates
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = s.cfg.MaxParallelism / s.cfg.Workers
	}
	if opts.Parallelism > s.cfg.MaxParallelism {
		opts.Parallelism = s.cfg.MaxParallelism
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	timeout := s.cfg.JobTimeout
	if o.TimeoutMS > 0 && time.Duration(o.TimeoutMS)*time.Millisecond < timeout {
		timeout = time.Duration(o.TimeoutMS) * time.Millisecond
	}
	return opts, timeout
}

// Submit admits one job: validate and compile the sketch (cheap —
// parse + desugar), answer |C| from the cross-request count cache when
// the sketch hash is known, and enqueue. Admission errors are
// RequestError (client), errDraining, or errQueueFull (backpressure).
func (s *Server) Submit(req SubmitRequest) (*Job, error) {
	if s.draining.Load() {
		s.cRejectedDraining.Add(1)
		return nil, errDraining
	}
	if strings.TrimSpace(req.Src) == "" {
		s.cRejectedInvalid.Add(1)
		return nil, badRequest("empty sketch source")
	}
	target := req.Target
	if target == "" {
		t, err := psketch.DetectTarget(req.Src)
		if err != nil {
			s.cRejectedInvalid.Add(1)
			return nil, badRequest("%v", err)
		}
		target = t
	}
	opts, timeout := s.jobOptions(req.Options)
	hash := psketch.SketchHash(req.Src, target, opts)
	count, cached := s.cachedCount(hash)
	if !cached {
		sk, err := psketch.Compile(req.Src, target, opts)
		if err != nil {
			s.cRejectedInvalid.Add(1)
			return nil, badRequest("%v", err)
		}
		count = sk.CandidateCount().String()
		s.storeCount(hash, count)
	}

	j := &Job{
		Src:       req.Src,
		Target:    target,
		Hash:      hash,
		Count:     count,
		Submitted: time.Now(),
		opts:      opts,
		timeout:   timeout,
		hub:       newHub(),
		state:     StateQueued,
	}
	s.mu.Lock()
	s.seq++
	j.ID = fmt.Sprintf("j%06d", s.seq)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()

	j.hub.publish(Event{Event: "queued"})
	if err := s.queue.Push(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		if errors.Is(err, errQueueFull) {
			s.cRejectedFull.Add(1)
		} else {
			s.cRejectedDraining.Add(1)
			err = errDraining
		}
		return nil, err
	}
	s.cSubmitted.Add(1)
	s.cQueueDepth.Set(int64(s.queue.Len()))
	s.cfg.Verbose("job %s queued: target=%s hash=%.12s |C|=%s", j.ID, target, hash, count)
	return j, nil
}

// cachedCount / storeCount implement the cross-request |C| cache.
func (s *Server) cachedCount(hash string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counts[hash]
	return c, ok
}

func (s *Server) storeCount(hash, count string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.counts) >= countCacheCap {
		s.counts = make(map[string]string)
	}
	s.counts[hash] = count
}

// Job returns the job by ID (nil when unknown).
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs returns every known job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// worker is one slot of the fixed worker array: pull a batch, run its
// jobs back-to-back, exit when the queue closes and empties.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		batch := s.queue.PullBatch(s.cfg.Batch)
		if batch == nil {
			return
		}
		s.cQueueDepth.Set(int64(s.queue.Len()))
		for _, j := range batch {
			if j.killed.Load() {
				s.cCanceled.Add(1)
				j.finish(StateCanceled, nil, errors.New("service: canceled while queued"))
				continue
			}
			s.run(j)
		}
	}
}

// run executes one job: per-job tracer (journal file + event hub),
// wall-clock budget, warm-store checkout via the library, and an honest
// terminal state.
func (s *Server) run(j *Job) {
	s.cRunning.Add(1)
	defer s.cRunning.Add(-1)
	j.setRunning()
	s.cfg.Verbose("job %s running (timeout %v, parallelism %d)", j.ID, j.timeout, j.opts.Parallelism)

	met := obs.NewMetrics()
	var sinks []obs.Sink
	var js *obs.JournalSink
	var jf *os.File
	if s.cfg.JournalDir != "" {
		f, err := os.Create(filepath.Join(s.cfg.JournalDir, "job-"+j.ID+".jsonl"))
		if err != nil {
			s.cfg.Verbose("job %s: journal: %v", j.ID, err)
		} else {
			jf = f
			js = obs.NewJournalSink(f, map[string]string{
				"cmd":         "psketchd",
				"job":         j.ID,
				"target":      j.Target,
				"sketch_hash": j.Hash,
			})
			sinks = append(sinks, js)
		}
	}
	sinks = append(sinks, j.hub)

	opts := j.opts
	opts.Trace = obs.NewTracer(obs.MultiSink(sinks...))
	opts.Metrics = met
	opts.Cancel = &j.cancel

	timer := time.AfterFunc(j.timeout, func() {
		j.timedOut.Store(true)
		j.cancel.Store(true)
	})
	// Compile again with the run-scoped options (tracer, metrics,
	// cancel); parse + desugar cost is noise next to synthesis, and the
	// admission-time compile already proved it cannot fail.
	res, err := psketch.Synthesize(j.Src, j.Target, opts)
	timer.Stop()

	if js != nil {
		js.WriteMetrics(met.Snapshot())
		if cerr := js.Close(); cerr != nil {
			s.cfg.Verbose("job %s: journal: %v", j.ID, cerr)
		}
		jf.Close()
	}

	switch {
	case err == nil:
		s.cDone.Add(1)
		j.finish(StateDone, res, nil)
		s.cfg.Verbose("job %s done: resolved=%v iters=%d warm=%v", j.ID, res.Resolved, res.Stats.Iterations, res.Stats.WarmStart)
	case errors.Is(err, psketch.ErrCanceled) && j.timedOut.Load():
		s.cFailed.Add(1)
		j.finish(StateFailed, nil, fmt.Errorf("job exceeded its wall-clock budget (%v)", j.timeout))
		s.cfg.Verbose("job %s timed out after %v", j.ID, j.timeout)
	case errors.Is(err, psketch.ErrCanceled):
		s.cCanceled.Add(1)
		j.finish(StateCanceled, nil, err)
		s.cfg.Verbose("job %s canceled", j.ID)
	default:
		s.cFailed.Add(1)
		j.finish(StateFailed, nil, err)
		s.cfg.Verbose("job %s failed: %v", j.ID, err)
	}
}

// Drain gracefully stops the server: new submissions are rejected with
// 503, the queue closes (jobs already admitted still run — admission is
// a promise), and Drain blocks until every worker exits. If ctx expires
// first, every queued-or-running job is cooperatively canceled, the
// workers are still joined, and ctx's error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, j := range s.Jobs() {
			if !j.terminal() {
				j.Cancel()
			}
		}
		<-done
		return ctx.Err()
	}
}
