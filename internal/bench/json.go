package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"psketch/internal/sat"
)

// jsonRow is the machine-readable form of a Figure 9 row: durations in
// milliseconds, errors as strings.
type jsonRow struct {
	Bench    string `json:"bench"`
	Test     string `json:"test"`
	Resolved bool   `json:"resolved"`
	Expected bool   `json:"expected"`
	Error    string `json:"error,omitempty"`

	Iterations int     `json:"iterations"`
	LogC       float64 `json:"log10_candidates"`
	TotalMS    float64 `json:"total_ms"`
	SSolveMS   float64 `json:"ssolve_ms"`
	SModelMS   float64 `json:"smodel_ms"`
	VSolveMS   float64 `json:"vsolve_ms"`
	VModelMS   float64 `json:"vmodel_ms"`
	MemMiB     float64 `json:"mem_mib"`

	MCStates       int    `json:"mc_states"`
	MCTrans        int    `json:"mc_trans"`
	MCVisitedBytes uint64 `json:"mc_visited_bytes"`
	SATVars        int    `json:"sat_vars"`
	SATClauses     int    `json:"sat_clauses"`
	SATConfl       int64  `json:"sat_conflicts"`

	Parallelism    int               `json:"parallelism"`
	SATWorkers     []sat.WorkerStats `json:"sat_workers,omitempty"`
	MCWorkerStates []int             `json:"mc_worker_states,omitempty"`

	SATExported int64 `json:"sat_exported"`
	SATImported int64 `json:"sat_imported"`
	ProjHits    int64 `json:"proj_hits"`
	ProjMisses  int64 `json:"proj_misses"`
	ProjSaved   int64 `json:"proj_saved_entries"`

	ProofLemmas  int     `json:"proof_lemmas,omitempty"`
	ProofChecked int     `json:"proof_checked,omitempty"`
	ProofCheckMS float64 `json:"proof_check_ms,omitempty"`

	// Emit/rank column (absent unless the sweep ran with
	// -rank-emitted): the resolved candidate's measured ops/sec from
	// its emitted Go load harness.
	ThroughputOpsSec float64 `json:"throughput_ops_sec,omitempty"`
}

// jsonOptions is the engine + host configuration header of a report.
// A benchmark number is only comparable against another run under the
// same configuration, so everything that shapes the measurement is
// recorded here: engine knobs (parallelism, proof replay, verifier
// budget) and the host the run was taken on.
type jsonOptions struct {
	Parallelism        int    `json:"parallelism"`
	TracesPerIteration int    `json:"traces_per_iteration"`
	TimeoutMS          int64  `json:"timeout_ms"`
	Filter             string `json:"filter,omitempty"`

	MCMaxStates int  `json:"mc_max_states,omitempty"`
	Proof       bool `json:"proof,omitempty"`
	// Throughput numbers are only comparable between runs that measured
	// the same way, so the emit/rank knob is recorded like the other
	// engine knobs.
	RankEmitted bool   `json:"rank_emitted,omitempty"`
	GoVersion   string `json:"go_version,omitempty"`
	GOOS        string `json:"goos,omitempty"`
	GOARCH      string `json:"goarch,omitempty"`
	NumCPU      int    `json:"num_cpu,omitempty"`
	GOMAXPROCS  int    `json:"gomaxprocs,omitempty"`
}

// jsonReport is the top-level document pskbench -json writes.
type jsonReport struct {
	Options jsonOptions `json:"options"`
	Rows    []jsonRow   `json:"rows"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// WriteJSON writes the measured rows (and the sweep configuration that
// produced them) to path as indented JSON.
func WriteJSON(path string, rows []Row, opts Options) error {
	var rep jsonReport
	rep.Options.Parallelism = opts.Parallelism
	rep.Options.TracesPerIteration = opts.TracesPerIteration
	rep.Options.TimeoutMS = opts.Timeout.Milliseconds()
	rep.Options.Filter = opts.Filter
	rep.Options.MCMaxStates = opts.MCMaxStates
	rep.Options.Proof = opts.Proof
	rep.Options.RankEmitted = opts.RankEmitted
	rep.Options.GoVersion = runtime.Version()
	rep.Options.GOOS = runtime.GOOS
	rep.Options.GOARCH = runtime.GOARCH
	rep.Options.NumCPU = runtime.NumCPU()
	rep.Options.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Rows = make([]jsonRow, 0, len(rows))
	for _, r := range rows {
		jr := jsonRow{
			Bench: r.Bench, Test: r.Test, Resolved: r.Resolved, Expected: r.Expected,
			Iterations: r.Itns, LogC: r.LogC,
			TotalMS: ms(r.Total), SSolveMS: ms(r.SSolve), SModelMS: ms(r.SModel),
			VSolveMS: ms(r.VSolve), VModelMS: ms(r.VModel), MemMiB: r.MemMiB,
			MCStates: r.MCStates, MCTrans: r.MCTrans, MCVisitedBytes: r.MCVisitedBytes,
			SATVars: r.SATVars, SATClauses: r.SATClauses, SATConfl: r.SATConfl,
			Parallelism: r.Parallelism, SATWorkers: r.SATWorkers, MCWorkerStates: r.MCWorkerStates,
			SATExported: r.SATExported, SATImported: r.SATImported,
			ProjHits: r.ProjHits, ProjMisses: r.ProjMisses, ProjSaved: r.ProjSaved,
			ProofLemmas: r.ProofLemmas, ProofChecked: r.ProofChecked, ProofCheckMS: ms(r.ProofCheck),
			ThroughputOpsSec: r.Throughput,
		}
		if r.Err != nil {
			jr.Error = r.Err.Error()
		}
		rep.Rows = append(rep.Rows, jr)
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
