package bench

import (
	"encoding/json"
	"fmt"
	"sort"

	"psketch/internal/obs"
)

// GateOptions tune the benchmark regression gate.
type GateOptions struct {
	// Tolerance is the maximum allowed candidate/baseline wall-clock
	// ratio per row (0 = default 3.0). CI runners are noisy and share
	// cores, so this is deliberately loose: the gate exists to catch
	// order-of-magnitude regressions and verdict flips, not 10% drift.
	Tolerance float64
	// MinMS is the noise floor in milliseconds (0 = default 250).
	// A row is only timed against the baseline when at least one side
	// took this long — sub-floor rows are dominated by scheduler and
	// allocator noise at any tolerance.
	MinMS float64
	// MemTolerance is the maximum allowed candidate/baseline ratio of
	// the peak visited-set footprint (mc_visited_bytes, 0 = default
	// 3.0). The footprint is an analytic estimate, not a heap sample,
	// so it is far less noisy than wall clock — but parallel searches
	// still race over which states each claims.
	MemTolerance float64
	// MinBytes is the memory-gate floor (0 = default 8 MiB): rows whose
	// candidate footprint is below it are not memory-gated, since tiny
	// tables are dominated by fixed map overhead.
	MinBytes uint64
}

func (o GateOptions) tolerance() float64 {
	if o.Tolerance <= 0 {
		return 3.0
	}
	return o.Tolerance
}

func (o GateOptions) minMS() float64 {
	if o.MinMS <= 0 {
		return 250
	}
	return o.MinMS
}

func (o GateOptions) memTolerance() float64 {
	if o.MemTolerance <= 0 {
		return 3.0
	}
	return o.MemTolerance
}

func (o GateOptions) minBytes() uint64 {
	if o.MinBytes == 0 {
		return 8 << 20
	}
	return o.MinBytes
}

// GateResult is the outcome of comparing a candidate report against a
// baseline: hard failures (verdict flips, new errors, missing rows,
// out-of-tolerance slowdowns), advisory warnings (configuration skew
// that makes the timing comparison apples-to-oranges), and how many
// rows were actually compared.
type GateResult struct {
	Failures []string
	Warnings []string
	Compared int
}

// OK reports whether the gate passed.
func (g *GateResult) OK() bool { return len(g.Failures) == 0 }

func (g *GateResult) failf(format string, args ...any) {
	g.Failures = append(g.Failures, fmt.Sprintf(format, args...))
}

func (g *GateResult) warnf(format string, args ...any) {
	g.Warnings = append(g.Warnings, fmt.Sprintf(format, args...))
}

// Gate compares a candidate pskbench -json report against a baseline
// one. Verdict disagreements — a row resolving where the baseline (or
// the benchmark's own expectation) said NO, or vice versa — and rows
// erroring where the baseline succeeded fail outright regardless of
// timing. Wall-clock is gated at Tolerance x above the noise floor.
//
// The candidate is allowed to be a subset sweep (pskbench -filter):
// baseline rows with no candidate counterpart only fail the gate when
// the candidate ran unfiltered. Rows new in the candidate are checked
// against their own Expected verdict but have no timing baseline.
//
// Configuration skew (different parallelism, pipeline, clause
// sharing, POR, traces, or host) demotes nothing to a failure but is
// surfaced as warnings, since the timing comparison is then
// unreliable. Header fields absent from an older baseline (host
// info, proof flag) are treated as unknown, not as a mismatch.
func Gate(baseline, candidate []byte, o GateOptions) (*GateResult, error) {
	var base, cand jsonReport
	if err := json.Unmarshal(baseline, &base); err != nil {
		return nil, fmt.Errorf("gate: parsing baseline: %w", err)
	}
	if err := json.Unmarshal(candidate, &cand); err != nil {
		return nil, fmt.Errorf("gate: parsing candidate: %w", err)
	}
	g := &GateResult{}
	compareOptions(g, base.Options, cand.Options)

	byKey := make(map[string]jsonRow, len(base.Rows))
	for _, r := range base.Rows {
		byKey[r.Bench+"/"+r.Test] = r
	}
	seen := make(map[string]bool, len(cand.Rows))
	for _, cr := range cand.Rows {
		key := cr.Bench + "/" + cr.Test
		seen[key] = true
		if cr.Error != "" {
			g.failf("%s: errored: %s", key, cr.Error)
			continue
		}
		if cr.Resolved != cr.Expected {
			g.failf("%s: resolved=%v but the benchmark expects %v", key, cr.Resolved, cr.Expected)
			continue
		}
		br, ok := byKey[key]
		if !ok {
			g.warnf("%s: not in baseline (new row, no timing reference)", key)
			continue
		}
		g.Compared++
		if br.Error == "" && cr.Resolved != br.Resolved {
			g.failf("%s: resolved=%v, baseline resolved=%v", key, cr.Resolved, br.Resolved)
			continue
		}
		tol, floor := o.tolerance(), o.minMS()
		if cr.TotalMS > floor && cr.TotalMS > tol*br.TotalMS {
			g.failf("%s: %.0fms vs baseline %.0fms (%.1fx > %.1fx tolerance)",
				key, cr.TotalMS, br.TotalMS, cr.TotalMS/br.TotalMS, tol)
		}
		// Peak visited-set memory, gated only when both reports carry
		// the column (baselines written before it read back as 0).
		mtol, mfloor := o.memTolerance(), o.minBytes()
		if br.MCVisitedBytes > 0 && cr.MCVisitedBytes > mfloor &&
			float64(cr.MCVisitedBytes) > mtol*float64(br.MCVisitedBytes) {
			g.failf("%s: peak visited set %.1f MiB vs baseline %.1f MiB (%.1fx > %.1fx tolerance)",
				key, float64(cr.MCVisitedBytes)/(1<<20), float64(br.MCVisitedBytes)/(1<<20),
				float64(cr.MCVisitedBytes)/float64(br.MCVisitedBytes), mtol)
		}
	}
	if cand.Options.Filter == "" {
		var missing []string
		for key, br := range byKey {
			if !seen[key] && br.Error == "" {
				missing = append(missing, key)
			}
		}
		sort.Strings(missing)
		for _, key := range missing {
			g.failf("%s: in baseline but missing from candidate", key)
		}
	}
	return g, nil
}

// GateJournals compares two run journals (pskbench -journal output) the
// way Gate compares two -json reports: per-benchmark wall-clock from the
// bench.run spans is gated at Tolerance x above the noise floor, a run
// erroring where the baseline finished fails outright, and the engine's
// per-phase totals (solve, verify, projection) are each gated too — so
// a regression confined to one phase is caught even when the end-to-end
// time hides it. Configuration skew (differing parallelism recorded in
// the journal headers) is surfaced as a warning.
func GateJournals(baseline, candidate []byte, o GateOptions) (*GateResult, error) {
	bj, err := obs.ReadJournalString(string(baseline))
	if err != nil {
		return nil, fmt.Errorf("gate: parsing baseline journal: %w", err)
	}
	cj, err := obs.ReadJournalString(string(candidate))
	if err != nil {
		return nil, fmt.Errorf("gate: parsing candidate journal: %w", err)
	}
	g := &GateResult{}
	if bp, cp := bj.Meta["parallelism"], cj.Meta["parallelism"]; bp != "" && cp != "" && bp != cp {
		g.warnf("config: parallelism %s vs baseline %s — timings not comparable", cp, bp)
	}
	tol, floor := o.tolerance(), o.minMS()

	// Per-benchmark wall clock and verdict, keyed by bench/test attrs.
	type run struct {
		ms     float64
		status string
	}
	runs := func(j *obs.Journal) map[string]run {
		out := map[string]run{}
		for _, r := range j.Roots(obs.SpanBenchRun) {
			key := r.StrAttr("bench") + "/" + r.StrAttr("test")
			out[key] = run{ms: float64(r.Dur) / 1e6, status: r.StrAttr("status")}
		}
		return out
	}
	brs, crs := runs(bj), runs(cj)
	keys := make([]string, 0, len(crs))
	for key := range crs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		cr := crs[key]
		if cr.status != "done" {
			g.failf("%s: run ended with status %q", key, cr.status)
			continue
		}
		br, ok := brs[key]
		if !ok {
			g.warnf("%s: not in baseline journal (no timing reference)", key)
			continue
		}
		g.Compared++
		if cr.ms > floor && br.ms > 0 && cr.ms > tol*br.ms {
			g.failf("%s: %.0fms vs baseline %.0fms (%.1fx > %.1fx tolerance)",
				key, cr.ms, br.ms, cr.ms/br.ms, tol)
		}
	}

	// Per-phase totals across the whole journal. Speculative solving
	// overlaps verification, so spec time is advisory only.
	bt, ct := bj.PhaseTotals(), cj.PhaseTotals()
	for _, p := range obs.Phases {
		bms, cms := float64(bt[p])/1e6, float64(ct[p])/1e6
		if bms == 0 && cms == 0 {
			continue
		}
		g.Compared++
		if cms > floor && bms > 0 && cms > tol*bms {
			if p == obs.PhaseSpec {
				g.warnf("phase %s: %.0fms vs baseline %.0fms (%.1fx; overlapped, not gated)", p, cms, bms, cms/bms)
			} else {
				g.failf("phase %s: %.0fms vs baseline %.0fms (%.1fx > %.1fx tolerance)",
					p, cms, bms, cms/bms, tol)
			}
		}
	}
	return g, nil
}

// compareOptions flags engine-configuration skew between the two
// reports. Zero-valued fields on either side (older reports predate
// the host header) mean "unknown" and are skipped.
func compareOptions(g *GateResult, b, c jsonOptions) {
	if b.Parallelism != c.Parallelism {
		g.warnf("config: parallelism %d vs baseline %d — timings not comparable", c.Parallelism, b.Parallelism)
	}
	if b.Pipeline != c.Pipeline {
		g.warnf("config: pipeline %v vs baseline %v", c.Pipeline, b.Pipeline)
	}
	if b.ShareClauses != c.ShareClauses {
		g.warnf("config: share_clauses %v vs baseline %v", c.ShareClauses, b.ShareClauses)
	}
	if b.POR != c.POR {
		g.warnf("config: por %v vs baseline %v", c.POR, b.POR)
	}
	if b.Symmetry != nil && c.Symmetry != nil && *b.Symmetry != *c.Symmetry {
		g.warnf("config: symmetry %v vs baseline %v", *c.Symmetry, *b.Symmetry)
	}
	if b.MCCompress != c.MCCompress {
		g.warnf("config: mc_compress %q vs baseline %q — memory not comparable", c.MCCompress, b.MCCompress)
	}
	if b.TracesPerIteration != c.TracesPerIteration {
		g.warnf("config: traces_per_iteration %d vs baseline %d", c.TracesPerIteration, b.TracesPerIteration)
	}
	if c.Proof && !b.Proof {
		g.warnf("config: candidate ran with proof replay on, baseline without — expect overhead")
	}
	if b.Cubes != c.Cubes {
		g.warnf("config: cubes %d vs baseline %d — per-test work not comparable", c.Cubes, b.Cubes)
	}
	if b.RankEmitted != c.RankEmitted {
		g.warnf("config: rank_emitted %v vs baseline %v — throughput columns not comparable", c.RankEmitted, b.RankEmitted)
	}
	if b.GoVersion != "" && c.GoVersion != "" && b.GoVersion != c.GoVersion {
		g.warnf("config: %s vs baseline %s", c.GoVersion, b.GoVersion)
	}
	if b.GOARCH != "" && c.GOARCH != "" && b.GOARCH != c.GOARCH {
		g.warnf("config: %s/%s vs baseline %s/%s", c.GOOS, c.GOARCH, b.GOOS, b.GOARCH)
	}
	if b.NumCPU != 0 && c.NumCPU != 0 && b.NumCPU != c.NumCPU {
		g.warnf("config: %d CPUs vs baseline %d — timings not comparable", c.NumCPU, b.NumCPU)
	}
}
