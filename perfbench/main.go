// Command perfbench is psketch's end-to-end benchmark. It runs one named
// workload through the library's public calls on the deterministic
// Parallelism 1 engine, checks every output against a checked-in known
// answer, and prints one JSON result line: the end-to-end metrics, or
// with -trace 1 the per-layer metrics of a traced run. See README.md.
//
// Usage (from the repository root, normally through run.py):
//
//	perfbench -workload synth|service -seed N -seconds S -trace 0|1
//	perfbench -regen   # re-record answers.json from a -j 1 run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"psketch/internal/obs"
)

// A run builds its set-up at least minSetups and at most maxSetups
// times, until setupBudget of set-up has been measured, and reports the
// median. A sub-millisecond set-up thus gets enough samples to be
// steady, and a heavy one is not repeated for long. Over 25 set-ups of
// half a millisecond, the median varied by 30% from process to
// process; over 400, by 18%.
const (
	minSetups   = 5
	maxSetups   = 400
	setupBudget = 2 * time.Second
)

// jobTimeout bounds one job, so that a run ends within its time limit
// even when a job hangs; a job that hits it counts as failed.
const jobTimeout = time.Minute

// jobResult is one timed job.
type jobResult struct {
	key     string // the row, check or sketch the job ran
	latency time.Duration
	err     error        // engine error, or a failed output check
	check   func() error // the output check, run after the timed region
	c       counters
}

// counters are a job's exact work counts (equal in every run of the
// -j 1 engine) plus the engine's own synthesis time.
type counters struct {
	Holes        int
	Iterations   int
	SATConfl     int64
	SATVars      int
	SATClauses   int
	ProjHits     int64
	ProjMisses   int64
	MCStates     int
	MCTrans      int
	VisitedBytes uint64
	ProofLemmas  int
	ProofChecked int

	synthTotal time.Duration // Stats.Total; not exact
}

// region is one timed loop over a workload's jobs.
type region struct {
	wall time.Duration
	jobs []jobResult
	// layer holds per-layer metrics only the workload can measure
	// (set-up compile times, service timestamps, warm-store counters);
	// they override the values derived from counters and spans.
	layer map[string]float64
}

// workload is one set-up workload. run times a closed loop of jobs for
// about budget, recording spans into rec when it is non-nil, and then
// runs each job's output check.
type workload interface {
	run(budget time.Duration, rec *recorder) (*region, error)
	// jobLayer names the layer charged with the self time of a
	// bench.job span.
	jobLayer() string
	close()
}

func newWorkload(name string, a *answers, seed int64, buildDir string, traced bool) (workload, error) {
	switch name {
	case "synth":
		return newSynth(a, seed, traced)
	case "service":
		return newService(a, seed, buildDir)
	}
	return nil, fmt.Errorf("unknown workload %q (want synth or service)", name)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: synth or service")
	seed := fs.Int64("seed", 1, "seed that permutes the job order")
	seconds := fs.Int("seconds", 10, "length of the timed region in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	answersPath := fs.String("answers", "perfbench/answers.json", "known-answers file")
	buildDir := fs.String("build-dir", ".bench_build", "directory for traces and service journals")
	regen := fs.Bool("regen", false, "re-record the known-answers file from a -j 1 run and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	if *regen {
		if err := regenerate(*answersPath, logf); err != nil {
			logf("perfbench: regen: %v", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		logf("perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	var w workload
	var setup []float64
	var spent time.Duration
	for len(setup) < minSetups || (len(setup) < maxSetups && spent < setupBudget) {
		if w != nil {
			w.close()
		}
		// Start every set-up from a collected heap, as the first one
		// in a fresh process does, so none pays for an earlier one's
		// garbage.
		runtime.GC()
		t0 := time.Now()
		a, err := loadAnswers(*answersPath)
		if err == nil {
			w, err = newWorkload(*name, a, *seed, *buildDir, *traced == 1)
		}
		d := time.Since(t0)
		if err != nil {
			logf("perfbench: set-up: %v", err)
			return 1
		}
		spent += d
		setup = append(setup, d.Seconds())
	}
	defer w.close()

	budget := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *traced == 0 {
		res, err = measure(w, budget, median(setup))
	} else {
		path := filepath.Join(*buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		res, err = measureTraced(w, budget, path, map[string]string{
			"cmd": "perfbench", "workload": *name, "seed": strconv.FormatInt(*seed, 10),
		})
	}
	if err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	for _, f := range res.failures {
		logf("FAILED %v", f)
	}
	out, err := json.Marshal(res.line)
	if err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	line     resultLine
	failures []error
}

// tally runs the output checks and counts the failures of regions.
func tally(rs ...*region) result {
	var out result
	for _, r := range rs {
		for i := range r.jobs {
			j := &r.jobs[i]
			if j.err == nil && j.check != nil {
				j.err = j.check()
			}
			out.line.Attempted++
			if j.err != nil {
				out.line.Failed++
				out.failures = append(out.failures, j.err)
			}
		}
	}
	out.line.Correct = out.line.Attempted > 0 && out.line.Failed == 0
	return out
}

// measure is the untraced run: every end-to-end metric.
func measure(w workload, budget time.Duration, setupS float64) (result, error) {
	r, err := w.run(budget, nil)
	if err != nil {
		return result{}, err
	}
	res := tally(r)
	if len(r.jobs) == 0 {
		return result{}, fmt.Errorf("no job completed")
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	var lat []float64
	byKey := map[string][]float64{}
	for _, j := range r.jobs {
		v := ms(j.latency)
		lat = append(lat, v)
		byKey[j.key] = append(byKey[j.key], v)
	}
	var perKey []float64
	for _, vs := range byKey {
		perKey = append(perKey, median(vs))
	}
	n := float64(len(r.jobs))
	res.line.Metrics = map[string]metric{
		"setup_s":            {setupS, "s"},
		"jobs_per_s":         {n / r.wall.Seconds(), "1/s"},
		"latency_geomean_ms": {geomean(perKey), "ms"},
		"latency_p50_ms":     {quantile(lat, 0.5), "ms"},
		"latency_p90_ms":     {quantile(lat, 0.9), "ms"},
		"verdicts_ok":        {float64(res.line.Attempted-res.line.Failed) / float64(res.line.Attempted), "share"},
		"peak_rss_mib":       {rss, "MiB"},
	}
	return res, nil
}

// measureTraced is the traced run. It times an untraced region and then
// a traced one, each over half the budget; the per-layer metrics come
// from the traced region's spans and results, the Go runtime's counters
// from the untraced region, and trace.overhead from the two rates.
func measureTraced(w workload, budget time.Duration, tracePath string, meta map[string]string) (result, error) {
	rt0 := readRuntime()
	r0, err := w.run(budget/2, nil)
	if err != nil {
		return result{}, err
	}
	rt1 := readRuntime()
	rec := newRecorder()
	r1, err := w.run(budget/2, rec)
	if err != nil {
		return result{}, err
	}
	res := tally(r0, r1)
	if len(r0.jobs) == 0 || len(r1.jobs) == 0 {
		return result{}, fmt.Errorf("no job completed")
	}
	spans := rec.snapshot()
	res.line.Metrics = perLayer(r1, spans, w.jobLayer(), len(r0.jobs), rt0, rt1,
		(float64(len(r1.jobs))/r1.wall.Seconds())/(float64(len(r0.jobs))/r0.wall.Seconds()))
	if err := rec.writeJournal(tracePath, meta); err != nil {
		return result{}, err
	}
	return res, nil
}

// layerMetrics lists every per-layer metric with its unit.
var layerMetrics = []struct{ name, unit string }{
	{"frontend.compile_ms", "ms"}, {"frontend.holes", "count"},
	{"ir.lower_ms", "ms"},
	{"core.iterations", "count"}, {"core.synthesize_ms", "ms"},
	{"sat.solve_ms", "ms"}, {"sat.conflicts", "count"}, {"sat.decisions", "count"},
	{"sat.propagations", "count"}, {"sat.vars", "count"}, {"sat.clauses", "count"},
	{"project.encode_ms", "ms"}, {"project.cache_hits", "count"},
	{"project.cache_misses", "count"}, {"project.hit_ratio", "ratio"},
	{"mc.check_ms", "ms"}, {"mc.states", "count"}, {"mc.trans", "count"},
	{"mc.states_per_s", "1/s"}, {"mc.visited_bytes", "bytes"}, {"mc.por_pruned", "count"},
	{"mc.refute_ms", "ms"}, {"mc.verify_ms", "ms"},
	{"drat.check_ms", "ms"}, {"drat.lemmas", "count"}, {"drat.checked", "count"},
	{"service.admit_ms", "ms"}, {"service.queue_wait_ms", "ms"}, {"service.run_ms", "ms"},
	{"service.rejected", "count"},
	{"warm.hits", "count"}, {"warm.misses", "count"}, {"warm.evictions", "count"},
	{"warm.hit_ratio", "ratio"}, {"warm.bytes", "bytes"},
	{"runtime.alloc_mib", "MiB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_s", "s"},
	{"trace.overhead", "ratio"},
}

// perLayer derives the per-layer metrics. Times and counts are means
// per job; ratios, rates and peaks are over the whole region. The
// runtime.* counters are the untraced region's (untracedJobs jobs
// between rt0 and rt1), so tracing's own allocations do not show.
func perLayer(r *region, spans []obs.SpanRecord, jobLayer string, untracedJobs int,
	rt0, rt1 runtimeSample, overhead float64) map[string]metric {
	n := float64(len(r.jobs))
	var c counters
	var synth time.Duration
	for _, j := range r.jobs {
		c.Holes += j.c.Holes
		c.Iterations += j.c.Iterations
		c.SATConfl += j.c.SATConfl
		c.SATVars += j.c.SATVars
		c.SATClauses += j.c.SATClauses
		c.ProjHits += j.c.ProjHits
		c.ProjMisses += j.c.ProjMisses
		c.MCStates += j.c.MCStates
		c.MCTrans += j.c.MCTrans
		c.VisitedBytes = max(c.VisitedBytes, j.c.VisitedBytes)
		c.ProofLemmas += j.c.ProofLemmas
		c.ProofChecked += j.c.ProofChecked
		synth += j.c.synthTotal
	}
	self := selfTimes(spans, jobLayer)
	st := sumSpans(spans)
	per := func(v float64) float64 { return v / n }
	perMS := func(d time.Duration) float64 { return ms(d) / n }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	mcSec := (st.mcRefute + st.mcVerify).Seconds()
	statesPerS := 0.0
	if mcSec > 0 {
		statesPerS = float64(c.MCStates) / mcSec
	}
	un := float64(untracedJobs)
	v := map[string]float64{
		"frontend.compile_ms":  perMS(self[layerFrontend]),
		"frontend.holes":       per(float64(c.Holes)),
		"ir.lower_ms":          perMS(self[layerIR]),
		"core.iterations":      per(float64(c.Iterations)),
		"core.synthesize_ms":   perMS(synth),
		"sat.solve_ms":         perMS(self[layerSAT]),
		"sat.conflicts":        per(float64(c.SATConfl)),
		"sat.decisions":        per(float64(st.satDecisions)),
		"sat.propagations":     per(float64(st.satPropagations)),
		"sat.vars":             per(float64(c.SATVars)),
		"sat.clauses":          per(float64(c.SATClauses)),
		"project.encode_ms":    perMS(self[layerProject]),
		"project.cache_hits":   per(float64(c.ProjHits)),
		"project.cache_misses": per(float64(c.ProjMisses)),
		"project.hit_ratio":    ratio(float64(c.ProjHits), float64(c.ProjMisses)),
		"mc.check_ms":          perMS(self[layerMC]),
		"mc.states":            per(float64(c.MCStates)),
		"mc.trans":             per(float64(c.MCTrans)),
		"mc.states_per_s":      statesPerS,
		"mc.visited_bytes":     float64(c.VisitedBytes),
		"mc.por_pruned":        per(float64(st.porPruned)),
		"mc.refute_ms":         perMS(st.mcRefute),
		"mc.verify_ms":         perMS(st.mcVerify),
		"drat.check_ms":        perMS(self[layerDRAT]),
		"drat.lemmas":          per(float64(c.ProofLemmas)),
		"drat.checked":         per(float64(c.ProofChecked)),
		"runtime.alloc_mib":    float64(rt1.allocBytes-rt0.allocBytes) / (1 << 20) / un,
		"runtime.gc_cycles":    float64(rt1.gcCycles-rt0.gcCycles) / un,
		"runtime.gc_cpu_s":     (rt1.gcCPU - rt0.gcCPU) / un,
		"trace.overhead":       overhead,
	}
	for k, x := range r.layer {
		v[k] = x
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		x := v[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[m.name] = metric{x, m.unit}
	}
	return out
}

// endJob ends a bench.job span, naming the job it ran.
func endJob(sp obs.Span, key string) {
	if sp.Active() {
		sp.End(obs.Str("job", key))
	}
}

// jobError names the job an engine error came from, and reports a
// cancellation the job's timeout caused as a timeout.
func jobError(key string, err error, timedOut bool) error {
	if timedOut {
		return fmt.Errorf("%s: timed out after %v", key, jobTimeout)
	}
	return fmt.Errorf("%s: %w", key, err)
}

// passes runs pass repeatedly for as many whole passes as fit in
// budget, and at least one, and returns the wall time. Whole passes
// keep every job equally represented whatever order the seed picks.
func passes(budget time.Duration, pass func()) time.Duration {
	start := time.Now()
	for {
		p0 := time.Now()
		pass()
		if time.Since(start)+time.Since(p0) > budget {
			return time.Since(start)
		}
	}
}
