package mc

import (
	"testing"

	"psketch/internal/desugar"
	"psketch/internal/state"
)

// The parallel search must agree with the sequential verdict on every
// kind of outcome: assertion race, verified atomic, AB-BA deadlock.
func TestParallelMatchesSequential(t *testing.T) {
	for _, src := range []string{racySrc, atomicSrc, deadlockSrc} {
		_, l, sk := lower(t, src, desugar.Options{})
		cand := make(desugar.Candidate, len(sk.Holes))
		seq, err := Check(l, cand, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Check(l, cand, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.OK != seq.OK {
			t.Fatalf("parallel changed the verdict: par=%v seq=%v", par.OK, seq.OK)
		}
		if !par.OK {
			if par.Trace == nil || par.Trace.Failure == nil {
				t.Fatal("parallel counterexample missing")
			}
			if par.Trace.Failure.Kind != seq.Trace.Failure.Kind {
				t.Fatalf("failure kind differs: par=%v seq=%v",
					par.Trace.Failure.Kind, seq.Trace.Failure.Kind)
			}
		}
	}
}

// A verified program must be explored exhaustively: with no
// counterexample to cancel on, the unreduced parallel search covers the
// same state space as the sequential one (the visited set is shared, so
// the total distinct states match exactly). With POR on, the parallel
// sleep sets depend on claim order, so the guarantee weakens to "same
// verdict, never more states than the unreduced search".
func TestParallelExhaustiveStates(t *testing.T) {
	_, l, sk := lower(t, atomicSrc, desugar.Options{})
	cand := make(desugar.Candidate, len(sk.Holes))
	seq, err := Check(l, cand, Options{NoPOR: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Check(l, cand, Options{NoPOR: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !par.OK || !seq.OK {
		t.Fatal("expected both searches to verify")
	}
	if par.States != seq.States {
		t.Fatalf("parallel explored %d states, sequential %d", par.States, seq.States)
	}
	if par.Workers < 1 || len(par.WorkerStates) != par.Workers {
		t.Fatalf("worker accounting: workers=%d states=%v", par.Workers, par.WorkerStates)
	}
	total := 0
	for _, n := range par.WorkerStates {
		total += n
	}
	// Workers claim every state except the root, which the caller's
	// goroutine expands.
	if total != par.States-1 {
		t.Fatalf("per-worker states %v sum to %d, want %d", par.WorkerStates, total, par.States-1)
	}

	porPar, err := Check(l, cand, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !porPar.OK {
		t.Fatal("POR parallel search changed the verdict")
	}
	if porPar.States > seq.States {
		t.Fatalf("POR parallel explored %d states, more than the unreduced %d", porPar.States, seq.States)
	}
}

// Deadlock counterexamples must survive the parallel path with their
// blocked-thread sets intact.
func TestParallelDeadlockTrace(t *testing.T) {
	_, l, sk := lower(t, deadlockSrc, desugar.Options{})
	cand := make(desugar.Candidate, len(sk.Holes))
	res, err := Check(l, cand, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("missed the AB-BA deadlock in parallel mode")
	}
	if len(res.Trace.Deadlocked) != 2 {
		t.Fatalf("deadlock set: %v", res.Trace.Deadlocked)
	}
}

// The state budget must be enforced across all shards combined.
func TestParallelStateBudget(t *testing.T) {
	_, l, sk := lower(t, atomicSrc, desugar.Options{})
	cand := make(desugar.Candidate, len(sk.Holes))
	_, err := Check(l, cand, Options{Parallelism: 4, MaxStates: 3})
	if err == nil {
		t.Fatal("expected the shared state budget to trip")
	}
}

// MaxTraces > 1 must collect distinct traces in parallel mode too.
func TestParallelMultiTrace(t *testing.T) {
	_, l, sk := lower(t, racySrc, desugar.Options{})
	cand := make(desugar.Candidate, len(sk.Holes))
	res, err := Check(l, cand, Options{Parallelism: 4, MaxTraces: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("missed the lost update")
	}
	if len(res.Traces) == 0 || len(res.Traces) > 3 {
		t.Fatalf("trace budget violated: got %d traces", len(res.Traces))
	}
	for _, tr := range res.Traces {
		if tr.Failure == nil {
			t.Fatal("trace without failure")
		}
	}
}

// A Hook forces the sequential path: the schedule observation must be
// deterministic even when Parallelism is requested.
func TestParallelHookSequentialFallback(t *testing.T) {
	_, l, sk := lower(t, racySrc, desugar.Options{})
	cand := make(desugar.Candidate, len(sk.Holes))
	events := 0
	res, err := Check(l, cand, Options{
		Parallelism: 4,
		Hook:        func(Event, *state.State) { events++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("missed the lost update")
	}
	if res.Workers != 0 {
		t.Fatalf("hooked search must be sequential, got %d workers", res.Workers)
	}
	if events == 0 {
		t.Fatal("hook never fired")
	}
}
