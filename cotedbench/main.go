// Command cotedbench is the end-to-end benchmark of the coted service. It
// builds a seeded workload of SQL statements, starts service.New behind a
// real loopback net/http listener, drives it from the same process with a
// closed loop of two client connections, checks every response against the
// library with a correctness oracle, and prints its metrics: one row per
// workload, then one JSON object as the last line.
//
//	cotedbench --workload warm-advisor|cold-estimate|admit-optimize|all \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// half the time untraced and half traced, and reports the per-layer
// metrics. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"cote/internal/calib"
	"cote/internal/core"
	"cote/internal/optctx"
	"cote/internal/props"
)

// modelJSON is the fixed compilation-time model every run installs at
// set-up (Tinst and per-method constants fitted once on the reference
// host), so predictions and admission decisions repeat from run to run.
//
//go:embed model.json
var modelJSON []byte

// A run sets a server up at least minSetups times and until setupTime has
// passed (at most maxSetups times); setup_s is the median, and the last
// server is the one measured.
const (
	minSetups = 3
	maxSetups = 15
	setupTime = 2 * time.Second
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// hostRecord describes the machine a run measured. It is recorded only;
// no bound is rescaled by it.
type hostRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	TinstNS    float64 `json:"tinst_ns"`
}

func measureHost() hostRecord {
	h := hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		TinstNS:    calib.MeasureTinst() * 1e9,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind a timing (0: not a timing)
}

// result is one workload run's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]metric
	order     []string // print order
	notes     []string // printed after the row
}

func (r *result) set(name string, v float64, unit string, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// metricsDoc is the part of GET /metrics the benchmark reads.
type metricsDoc struct {
	Requests      map[string]int64 `json:"requests"`
	EstimateCache map[string]int64 `json:"estimate_cache"`
	EstimateBatch map[string]int64 `json:"estimate_batch"`
	Admission     map[string]int64 `json:"admission"`
	Overload      map[string]int64 `json:"overload"`
	Pool          map[string]int64 `json:"pool"`
	EnumScan      map[string]int64 `json:"enum_scan"`
	Calibration   struct {
		Observations int64 `json:"observations"`
	} `json:"calibration"`
}

func pct(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func main() {
	workloadFlag := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+" or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spanDir := flag.String("span-dir", ".bench_build/cotedbench", "directory for traced runs' span files")
	flag.Parse()
	names := []string{*workloadFlag}
	if *workloadFlag == "all" {
		names = workloadNames
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "cotedbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	host := measureHost()
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s commit=%s tinst_ns=%.4f\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.Commit, host.TinstNS)
	var results []*result
	for _, name := range names {
		res, err := run(name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *spanDir, host)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cotedbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printRow(res)
		results = append(results, res)
	}
	printJSON(results, *trace == 1)
}

func printRow(r *result) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s", r.workload)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(&b, " | %s %.6g %s", name, m.Value, m.Unit)
		if m.n > 0 {
			fmt.Fprintf(&b, " (n=%d)", m.n)
		}
	}
	fmt.Println(b.String())
	for _, n := range r.notes {
		fmt.Printf("  %s\n", n)
	}
}

// printJSON prints the result object as the last line: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one. The
// rows print more. For a single workload the metric names are bare; for
// "all" they carry the workload as a prefix.
func printJSON(results []*result, traced bool) {
	names := endToEndMetrics
	if traced {
		names = perLayerMetrics
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, name := range names {
			m, ok := r.metrics[name]
			if !ok {
				continue
			}
			if len(results) > 1 {
				name = r.workload + "/" + name
			}
			out.Metrics[name] = m
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cotedbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// endToEndMetrics and perLayerMetrics are the metrics every workload
// reports in the last-line JSON (BENCHMARK.json lists the same names).
var endToEndMetrics = []string{
	"setup_s", "throughput_rps", "cpu_us_per_req", "estimate_p50_ms",
	"heavy_p90_ms", "alloc_kb_per_req",
}

var perLayerMetrics = []string{
	"service.http_us", "service.decode_us", "service.encode_us", "service.cache_hit_pct",
	"service.batch_dedup_pct", "sqlparser.parse_us", "fingerprint.of_us", "fingerprint.of_allocs",
	"fingerprint.canonical_us", "enum.enumerate_us", "enum.joins", "enum.skip_pct",
	"core.estimate_us", "core.count_us", "core.estimate_allocs", "core.plans", "memo.peak_bytes",
	"opt.optimize_us", "opt.enumerate_us", "opt.generate_us", "opt.prune_us",
	"plangen.generated.nljn", "plangen.generated.mgjn", "plangen.generated.hsjn",
	"plangen.gen_us.nljn", "plangen.gen_us.mgjn", "plangen.gen_us.hsjn",
	"service.downgrade_pct", "core.overhead_pct", "core.plan_err_pct", "calib.observations", "calib.time_qerr_p50",
	"service.shed_pct", "service.pool_abandoned", "service.heap_peak_mb",
	"trace.overhead_pct", "trace.layer_sum_pct",
}

// run executes one workload: generation, repeated set-up, the timed
// phase(s), the oracle, and the metrics.
func run(name string, seed int64, d time.Duration, traced bool, spanDir string, host hostRecord) (*result, error) {
	w, err := buildWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	var model core.TimeModel
	if err := json.Unmarshal(modelJSON, &model); err != nil {
		return nil, fmt.Errorf("model.json: %w", err)
	}
	modelBody := mustJSON(map[string]json.RawMessage{"model": modelJSON})
	var setups []float64
	var t *target
	for begin := time.Now(); ; {
		tt, el, err := setup(w, modelBody)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, el.Seconds())
		if len(setups) >= maxSetups || len(setups) >= minSetups && time.Since(begin) >= setupTime {
			t = tt
			break
		}
		tt.close()
	}
	defer t.close()

	res := &result{workload: name, metrics: map[string]metric{}}
	src := &source{w: w}
	var pos [clients]int
	var phases []*phaseResult
	var tr *tracer
	if !traced {
		ph, err := runPhase(t, src, d, nil, &pos)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
	} else {
		phA, err := runPhase(t, src, d/2, nil, &pos)
		if err != nil {
			return nil, err
		}
		tr = newTracer(w, t.srv, &model)
		phB, err := runPhase(t, src, d/2, tr.after, &pos)
		if err != nil {
			return nil, err
		}
		phases = append(phases, phA, phB)
	}
	all := newStats()
	for _, ph := range phases {
		all.merge(ph.st)
	}

	o, err := newOracle(w, &model)
	if err != nil {
		return nil, err
	}
	bad := o.checkEstimates(all)
	badOpt, planErr := o.checkOptimizes(all)
	bad = append(bad, badOpt...)
	mismatched := 0
	for _, m := range bad {
		mismatched += m.n
	}
	res.attempted = all.attempted
	res.failed = count(all.failures) + mismatched

	ph := phases[0]
	res.set("setup_s", median(setups), "s", len(setups))
	res.set("throughput_rps", windowedRate(ph.st.done, ph.elapsed), "1/s", len(ph.st.done))
	res.set("error_pct", pct(int64(res.failed), int64(res.attempted)), "%", 0)
	for c, class := range classNames {
		s := ph.st.lat[c]
		if len(s) == 0 {
			continue // a route the workload does not send
		}
		for _, q := range []float64{50, 90, 99} {
			res.set(fmt.Sprintf("%s_p%.0f_ms", class, q), windowedQuantileMS(s, ph.elapsed, q/100), "ms", len(s))
		}
	}
	res.set("cpu_us_per_req", float64(ph.cpu.Microseconds())/float64(max(ph.st.ok, 1)), "us", 0)
	res.set("alloc_kb_per_req", float64(ph.alloc)/1024/float64(max(ph.st.ok, 1)), "KB", 0)
	if len(all.optimizes) > 0 {
		res.set("plan_err_pct", planErr, "%", 0)
	}
	for reason, n := range all.failures {
		res.notes = append(res.notes, fmt.Sprintf("failed %d: %s", n, reason))
	}
	for i, m := range bad {
		if i == 20 {
			res.notes = append(res.notes, fmt.Sprintf("... %d more mismatches", len(bad)-i))
			break
		}
		res.notes = append(res.notes, fmt.Sprintf("mismatch workload=%s statement=%d responses=%d: %s\n    one spelling: %s",
			name, m.sid, m.n, m.what, w.structs[m.sid].Emit(newRand(int64(m.sid)))))
	}
	sort.Strings(res.notes)
	if traced {
		if err := layerMetrics(res, w, t, tr, phases[0], phases[1], planErr, spanDir, seed, host); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerMetrics fills the per-layer metrics of a traced run: counters from
// the untraced phase's /metrics delta, span medians and replay results
// from the traced phase.
func layerMetrics(res *result, w *workload, t *target, tr *tracer, phA, phB *phaseResult, planErr float64, spanDir string, seed int64, host hostRecord) error {
	delta := func(get func(metricsDoc) map[string]int64, key string) int64 {
		return get(phA.after)[key] - get(phA.before)[key]
	}
	cache := func(m metricsDoc) map[string]int64 { return m.EstimateCache }
	batch := func(m metricsDoc) map[string]int64 { return m.EstimateBatch }
	reqs := func(m metricsDoc) map[string]int64 { return m.Requests }
	adm := func(m metricsDoc) map[string]int64 { return m.Admission }
	over := func(m metricsDoc) map[string]int64 { return m.Overload }
	pool := func(m metricsDoc) map[string]int64 { return m.Pool }
	scan := func(m metricsDoc) map[string]int64 { return m.EnumScan }

	hits := delta(cache, "hits")
	res.set("service.cache_hit_pct", pct(hits, hits+delta(cache, "misses")+delta(cache, "shared_flights")), "%", 0)
	res.set("service.batch_dedup_pct", pct(delta(batch, "deduped"), delta(batch, "statements")), "%", 0)
	served := delta(reqs, "estimate") + delta(reqs, "optimize") + delta(batch, "requests")
	res.set("service.shed_pct", pct(delta(over, "shed_requests"), served), "%", 0)
	res.set("service.pool_abandoned", float64(delta(pool, "abandoned_runs")), "count", 0)
	res.set("service.downgrade_pct", pct(delta(adm, "downgraded"), delta(reqs, "optimize")), "%", 0)
	res.set("service.heap_peak_mb", float64(phA.heapPeak)/(1<<20), "MB", 0)
	visited := delta(scan, "candidates_visited")
	skipped := delta(scan, "candidates_skipped")
	res.set("enum.skip_pct", pct(skipped, visited+skipped), "%", 0)
	res.set("calib.observations", float64(phA.after.Calibration.Observations-phA.before.Calibration.Observations), "count", 0)
	res.set("calib.time_qerr_p50", qerrP50(t.srv), "ratio", 0)
	res.set("core.plan_err_pct", planErr, "%", 0)

	ls := tr.spanStats()
	med := func(name string) float64 {
		if s := ls[name]; s != nil {
			return s.medianUS
		}
		return 0
	}
	count := func(name string) int {
		if s := ls[name]; s != nil {
			return s.n
		}
		return 0
	}
	timing := func(metric, span string) { res.set(metric, med(span), "us", count(span)) }
	res.set("service.http_us", med("http.estimate")-med("inproc.estimate"), "us", count("http.estimate"))
	timing("service.decode_us", "service.decode")
	timing("service.encode_us", "service.encode")
	timing("sqlparser.parse_us", "sqlparser.parse")
	timing("fingerprint.of_us", "fingerprint.of")
	timing("fingerprint.canonical_us", "fingerprint.canonical")
	timing("enum.enumerate_us", "enum.count_joins")
	timing("core.estimate_us", "core.estimate")
	res.set("core.count_us", med("core.estimate")-med("enum.count_joins"), "us", count("core.estimate"))
	timing("opt.optimize_us", "opt.optimize")
	pooled := func(get func(*clientTrace) []float64) (float64, int) {
		v := tr.pooled(get)
		return median(v), len(v)
	}
	set := func(metric, unit string, get func(*clientTrace) []float64) {
		v, n := pooled(get)
		res.set(metric, v, unit, n)
	}
	set("enum.joins", "count", func(ct *clientTrace) []float64 { return ct.joins })
	set("core.plans", "count", func(ct *clientTrace) []float64 { return ct.plans })
	set("memo.peak_bytes", "bytes", func(ct *clientTrace) []float64 { return ct.peakBytes })
	for _, st := range []optctx.Stage{optctx.StageEnumerate, optctx.StageGenerate, optctx.StagePrune} {
		st := st
		set("opt."+st.String()+"_us", "us", func(ct *clientTrace) []float64 { return ct.stages[st] })
	}
	for _, m := range []props.JoinMethod{props.NLJN, props.MGJN, props.HSJN} {
		m := m
		name := strings.ToLower(m.String())
		set("plangen.generated."+name, "count", func(ct *clientTrace) []float64 { return ct.generated[m] })
		set("plangen.gen_us."+name, "us", func(ct *clientTrace) []float64 { return ct.genUS[m] })
	}
	var estNS, optNS int64
	for _, ct := range tr.clients {
		estNS += ct.estNS
		optNS += ct.optNS
	}
	res.set("core.overhead_pct", pct(estNS, optNS), "%", 0)
	ofAllocs, estAllocs := allocProbe(w, t.srv, 16)
	res.set("fingerprint.of_allocs", ofAllocs, "allocs", 0)
	res.set("core.estimate_allocs", estAllocs, "allocs", 0)

	// Tracing overhead: the estimate route's HTTP latency with tracing on
	// against the untraced phase of the same run.
	untraced := windowedQuantileMS(phA.st.lat[cEstimate], phA.elapsed, 0.5)
	tracedMS := windowedQuantileMS(phB.st.lat[cEstimate], phB.elapsed, 0.5)
	overhead := 0.0
	if untraced > 0 {
		overhead = 100 * (tracedMS - untraced) / untraced
	}
	res.set("trace.overhead_pct", overhead, "%", 0)

	// Layer-sum check: the replayed layers an in-process call runs against
	// that call's median.
	call, layers := "inproc.estimate", []string{"sqlparser.parse", "fingerprint.of", "model.predict"}
	switch w.name {
	case coldEstimate:
		layers = append(layers, "fingerprint.canonical", "core.estimate")
	case admitOptimize:
		call, layers = "inproc.optimize", []string{"sqlparser.parse", "fingerprint.of", "opt.optimize"}
	}
	sum, callMS := tr.layerSum(call, layers)
	ratio := 0.0
	if callMS > 0 {
		ratio = sum / callMS
	}
	res.set("trace.layer_sum_pct", 100*ratio, "%", 0)
	verdict := "within"
	if ratio < 1-layerSumTolerance || ratio > 1+layerSumTolerance {
		verdict = "OUTSIDE"
	}
	res.notes = append(res.notes, fmt.Sprintf("layer-sum check: %s = %.1fus vs %s %.1fus: %.0f%%, %s the stated ±%.0f%%",
		strings.Join(layers, " + "), sum, call, callMS, 100*ratio, verdict, 100*layerSumTolerance))

	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	n, err := tr.writeSpans(path, host)
	if err != nil {
		return err
	}
	res.set("trace.spans", float64(n), "count", 0)
	res.notes = append(res.notes, "spans: "+path)
	names := make([]string, 0, len(ls))
	for name := range ls {
		names = append(names, name)
	}
	sort.Strings(names)
	res.notes = append(res.notes, fmt.Sprintf("%-24s %8s %12s %12s %12s", "span", "n", "p50_us", "self_p50_us", "self_sum_ms"))
	for _, name := range names {
		s := ls[name]
		res.notes = append(res.notes, fmt.Sprintf("%-24s %8d %12.1f %12.1f %12.1f", name, s.n, s.medianUS, s.medianSelf, s.totalSelfMS))
	}
	return nil
}
