package service

import (
	"sync"
	"sync/atomic"
	"time"

	"psketch"
)

// JobState is a job's lifecycle phase. Transitions are strictly
// queued → running → one of the terminal states.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"     // synthesis completed (resolved or a definitive NO)
	StateFailed   JobState = "failed"   // engine error or wall-clock budget exceeded
	StateCanceled JobState = "canceled" // client DELETE or forced drain
)

// SubmitRequest is the POST /v1/jobs body: the sketch source plus
// engine options. Target "" autodetects the unique harness/implements
// function, exactly like the psketch CLI.
type SubmitRequest struct {
	Src     string     `json:"src"`
	Target  string     `json:"target,omitempty"`
	Options JobOptions `json:"options,omitempty"`
}

// JobOptions is the per-job engine surface. Budget-shaped fields are
// clamped to the server's caps (Config); zero values take the engine
// defaults.
type JobOptions struct {
	IntWidth      int  `json:"int_width,omitempty"`
	HoleWidth     int  `json:"hole_width,omitempty"`
	LoopBound     int  `json:"loop_bound,omitempty"`
	MaxRepeat     int  `json:"max_repeat,omitempty"`
	Quadratic     bool `json:"quadratic,omitempty"`
	MaxIterations int  `json:"max_iterations,omitempty"`
	MCMaxStates   int  `json:"mc_max_states,omitempty"`
	Traces        int  `json:"traces,omitempty"`
	Parallelism   int  `json:"parallelism,omitempty"`
	Proof         bool `json:"proof,omitempty"`
	// TimeoutMS bounds the job's wall clock; 0 takes (and any value is
	// clamped to) the server's -job-timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Job is one admitted synthesis request. Immutable identity fields are
// set at admission; the mutable outcome fields are guarded by mu.
type Job struct {
	ID     string
	Src    string
	Target string
	// Hash is the sketch's warm-store key (psketch.SketchHash), shared
	// across jobs of the same sketch.
	Hash string
	// Count is |C| as a decimal string, computed once at admission.
	Count     string
	Submitted time.Time

	opts    psketch.Options
	timeout time.Duration
	hub     *hub

	// cancel aborts the engine cooperatively; timedOut and killed
	// record why, so the terminal state is honest about the cause.
	cancel   atomic.Bool
	timedOut atomic.Bool
	killed   atomic.Bool // client DELETE or forced drain

	mu       sync.Mutex
	state    JobState
	started  time.Time
	finished time.Time
	res      *psketch.Result
	err      error
}

// State returns the current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel requests cooperative termination (client DELETE / drain kill).
// It is a no-op once the job is terminal.
func (j *Job) Cancel() {
	j.killed.Store(true)
	j.cancel.Store(true)
}

// terminal reports whether the job reached a final state.
func (j *Job) terminal() bool {
	switch j.State() {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.hub.publish(Event{Event: "started"})
}

// finish records the outcome, emits the terminal event, and ends the
// event stream.
func (j *Job) finish(state JobState, res *psketch.Result, err error) {
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	j.res = res
	j.err = err
	j.mu.Unlock()

	e := Event{Event: "done", State: string(state)}
	if res != nil {
		r := res.Resolved
		e.Resolved = &r
	}
	if err != nil {
		e.Error = err.Error()
	}
	j.hub.publish(e)
	j.hub.close()
}
