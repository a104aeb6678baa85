package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"testing"
	"time"

	"cote/internal/core"
	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/optctx"
	"cote/internal/props"
	"cote/internal/query"
	"cote/internal/service"
	"cote/internal/sqlparser"
)

// The traced run records spans from the benchmark's side of each layer
// boundary. After every HTTP call of the traced phase, the client repeats
// the request in process (Server.Estimate, EstimateBatch or Optimize) and
// then replays it through each layer's public function: JSON decode of the
// request, sqlparser.Parse, fingerprint.Of and Canonical, core.CountJoins
// (enumeration alone), core.EstimatePlans, TimeModel.Predict,
// opt.OptimizeWith under an optctx.Ctx (compiles only), and JSON encode of
// the response. The spans of one request share its ID and hang off one
// root span; they are kept in memory and written out when the run ends.

type span struct {
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: the request's root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	Dur    int64  `json:"dur_ns"`
}

// layerSumTolerance bounds the layer-sum check: the medians of the layers
// an in-process call runs must add up to within this share of the call's
// own median (the call also sheds, looks up the cache and keeps metrics,
// which no replayed layer covers).
const layerSumTolerance = 0.25

// clientTrace is one client's spans and replay results.
type clientTrace struct {
	origin    time.Time // when the traced phase began
	spans     []span
	nextID    int
	joins     []float64
	plans     []float64
	peakBytes []float64
	stages    [optctx.NumStages][]float64 // compile stage time, µs
	generated [props.NumJoinMethods][]float64
	genUS     [props.NumJoinMethods][]float64
	estNS     int64 // Σ estimate time over compiled statements
	optNS     int64 // Σ compile time over the same statements
}

type tracer struct {
	w       *workload
	srv     *service.Server
	model   *core.TimeModel
	clients [clients]*clientTrace
}

func newTracer(w *workload, srv *service.Server, model *core.TimeModel) *tracer {
	tr := &tracer{w: w, srv: srv, model: model}
	origin := time.Now()
	for c := range tr.clients {
		tr.clients[c] = &clientTrace{origin: origin}
	}
	return tr
}

// rec appends a finished span and returns its ID.
func (ct *clientTrace) rec(req uint64, parent int, name string, t0, t1 time.Time) int {
	ct.nextID++
	ct.spans = append(ct.spans, span{Req: req, ID: ct.nextID, Parent: parent, Name: name,
		Start: t0.Sub(ct.origin).Nanoseconds(), Dur: t1.Sub(t0).Nanoseconds()})
	return ct.nextID
}

// open appends a span whose end is not known yet; close sets it.
func (ct *clientTrace) open(req uint64, parent int, name string, t0 time.Time) (int, int) {
	id := ct.rec(req, parent, name, t0, t0)
	return id, len(ct.spans) - 1
}

func (ct *clientTrace) close(at int, t1 time.Time) {
	ct.spans[at].Dur = t1.Sub(ct.origin).Nanoseconds() - ct.spans[at].Start
}

// timed runs fn inside a span.
func (ct *clientTrace) timed(req uint64, parent int, name string, fn func()) {
	t0 := time.Now()
	fn()
	ct.rec(req, parent, name, t0, time.Now())
}

// after is the traced phase's per-request hook (see afterFunc).
func (tr *tracer) after(c int, req *request, id uint64, h0, h1 time.Time) {
	ct := tr.clients[c]
	root, at := ct.open(id, 0, "request", h0)
	defer func() { ct.close(at, time.Now()) }()
	route := [...]string{kEstimate: "estimate", kBatch: "batch", kOptimize: "optimize", kUpload: "upload"}[req.kind]
	ct.rec(id, root, "http."+route, h0, h1)
	ctx := context.Background()
	var resp any
	switch req.kind {
	case kEstimate:
		var in service.EstimateRequest
		ct.timed(id, root, "service.decode", func() { decodeStrict(req.body, &in) })
		// Cold-estimate misses the cache on every request; the in-process
		// repeat bypasses it so that it enumerates too.
		in.NoCache = tr.w.name == coldEstimate
		ct.timed(id, root, "inproc.estimate", func() { resp, _ = tr.srv.Estimate(ctx, in) })
		level, _ := service.ParseLevel(req.level)
		tr.replay(ct, id, root, req, level, false)
	case kBatch:
		var in service.EstimateBatchRequest
		ct.timed(id, root, "service.decode", func() { decodeStrict(req.body, &in) })
		ct.timed(id, root, "inproc.batch", func() { resp, _ = tr.srv.EstimateBatch(ctx, in) })
	case kOptimize:
		var in service.OptimizeRequest
		ct.timed(id, root, "service.decode", func() { decodeStrict(req.body, &in) })
		var out *service.OptimizeResponse
		ct.timed(id, root, "inproc.optimize", func() { out, _ = tr.srv.Optimize(ctx, in) })
		resp = out
		if out != nil && out.Level != "" {
			level, _ := service.ParseLevel(out.Level)
			tr.replay(ct, id, root, req, level, level != opt.LevelLow)
		}
	default:
		return
	}
	if resp != nil {
		ct.timed(id, root, "service.encode", func() { encodeIndented(resp) })
	}
}

// replay runs the statement through each layer's public function.
func (tr *tracer) replay(ct *clientTrace, id uint64, root int, req *request, level opt.Level, compile bool) {
	s := tr.w.structs[req.sid]
	cat := tr.w.cats[s.Catalog]
	entry, err := tr.srv.Registry().Get(s.Catalog)
	if err != nil {
		return
	}
	rp, at := ct.open(id, root, "replay", time.Now())
	defer func() { ct.close(at, time.Now()) }()
	var b, cb *query.Block
	ct.timed(id, rp, "sqlparser.parse", func() { b, err = sqlparser.Parse(req.sql, cat.Cat) })
	if err != nil {
		return
	}
	ct.timed(id, rp, "fingerprint.of", func() { fingerprint.Of(b) })
	ct.timed(id, rp, "fingerprint.canonical", func() { cb, _, _ = fingerprint.Canonical(b) })
	if cb == nil {
		return
	}
	opts := core.Options{Level: level, Config: entry.Config}
	ct.timed(id, rp, "enum.count_joins", func() { _, _ = core.CountJoins(cb, opts) })
	var est *core.Estimate
	t0 := time.Now()
	est, err = core.EstimatePlans(cb, opts)
	t1 := time.Now()
	ct.rec(id, rp, "core.estimate", t0, t1)
	if err != nil {
		return
	}
	ct.joins = append(ct.joins, float64(est.Joins))
	ct.plans = append(ct.plans, float64(est.Counts.Total()))
	ct.peakBytes = append(ct.peakBytes, float64(est.MeasuredPeakBytes))
	ct.timed(id, rp, "model.predict", func() { tr.model.Predict(est.Counts) })
	if !compile {
		return
	}
	oc := optctx.New(context.Background())
	o0 := time.Now()
	res, err := opt.OptimizeWith(oc, b, opt.Options{Level: level, Config: entry.Config})
	o1 := time.Now()
	ct.rec(id, rp, "opt.optimize", o0, o1)
	if err != nil {
		return
	}
	ct.estNS += t1.Sub(t0).Nanoseconds()
	ct.optNS += o1.Sub(o0).Nanoseconds()
	for s, st := range oc.StageSnapshot() {
		ct.stages[s] = append(ct.stages[s], float64(st.Time.Nanoseconds())/1e3)
	}
	c := res.TotalCounters()
	for m := range c.Generated {
		ct.generated[m] = append(ct.generated[m], float64(c.Generated[m]))
		ct.genUS[m] = append(ct.genUS[m], float64(c.GenTime[m].Nanoseconds())/1e3)
	}
}

// decodeStrict decodes a request body the way the server's handlers do.
func decodeStrict(body []byte, v any) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	_ = dec.Decode(v) // bodies are built by the benchmark and always decode
}

// encodeIndented encodes a response the way the server's handlers do.
func encodeIndented(v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // into a bytes.Buffer; only the time matters
}

// sampleHeap samples the live heap every 20ms until stop closes and
// returns the largest sample, in bytes.
func sampleHeap(stop <-chan struct{}) uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 && sample[0].Value.Uint64() > peak {
			peak = sample[0].Value.Uint64()
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// allocProbe measures allocations per call of fingerprint.Of and
// core.EstimatePlans on up to n of the workload's statements, sequentially
// after the timed phases, and returns the medians.
func allocProbe(w *workload, srv *service.Server, n int) (ofAllocs, estAllocs float64) {
	var of, est []float64
	for sid := 0; sid < len(w.structs) && len(of) < n; sid += 1 + len(w.structs)/n {
		s := w.structs[sid]
		entry, err := srv.Registry().Get(s.Catalog)
		if err != nil {
			continue
		}
		blk, err := sqlparser.Parse(s.Emit(newRand(int64(sid))), entry.Catalog)
		if err != nil {
			continue
		}
		canon, _, err := fingerprint.Canonical(blk)
		if err != nil {
			continue
		}
		level, _ := service.ParseLevel(w.levels[sid])
		opts := core.Options{Level: level, Config: entry.Config}
		of = append(of, testing.AllocsPerRun(20, func() { fingerprint.Of(blk) }))
		est = append(est, testing.AllocsPerRun(2, func() { _, _ = core.EstimatePlans(canon, opts) }))
	}
	return median(of), median(est)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// layerStat is the per-name summary of the spans.
type layerStat struct {
	name        string
	n           int
	medianUS    float64
	medianSelf  float64
	totalSelfMS float64
}

// spanStats summarizes spans by name: duration and self time (duration
// minus the part its child spans cover; children of one span never
// overlap, since a client runs them one after another).
func (tr *tracer) spanStats() map[string]*layerStat {
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, ct := range tr.clients {
		childNS := map[[2]uint64]int64{}
		for _, sp := range ct.spans {
			if sp.Parent != 0 {
				childNS[[2]uint64{sp.Req, uint64(sp.Parent)}] += sp.Dur
			}
		}
		for _, sp := range ct.spans {
			durs[sp.Name] = append(durs[sp.Name], float64(sp.Dur)/1e3)
			selfs[sp.Name] = append(selfs[sp.Name], float64(sp.Dur-childNS[[2]uint64{sp.Req, uint64(sp.ID)}])/1e3)
		}
	}
	out := map[string]*layerStat{}
	for name, d := range durs {
		ls := &layerStat{name: name, n: len(d), medianUS: median(d), medianSelf: median(selfs[name])}
		for _, s := range selfs[name] {
			ls.totalSelfMS += s / 1e3
		}
		out[name] = ls
	}
	return out
}

// writeSpans writes the host record and every span as JSON lines.
func (tr *tracer) writeSpans(path string, host hostRecord) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := 0
	err = enc.Encode(map[string]any{"host": host, "workload": tr.w.name})
	for _, ct := range tr.clients {
		for i := range ct.spans {
			if err == nil {
				err = enc.Encode(&ct.spans[i])
				n++
			}
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("write spans: %w", err)
	}
	return n, nil
}

// layerSum returns the sum of the layers' median durations and the call's
// median, both over the requests whose spans include the call and every
// layer (a compile replays only at a dynamic-programming level), in µs.
func (tr *tracer) layerSum(call string, layers []string) (sum, callUS float64) {
	want := map[string]bool{call: true}
	for _, l := range layers {
		want[l] = true
	}
	durs := map[string][]float64{}
	for _, ct := range tr.clients {
		perReq := map[uint64]map[string]float64{}
		for _, sp := range ct.spans {
			if !want[sp.Name] {
				continue
			}
			if perReq[sp.Req] == nil {
				perReq[sp.Req] = map[string]float64{}
			}
			perReq[sp.Req][sp.Name] = float64(sp.Dur) / 1e3
		}
		for _, m := range perReq {
			if len(m) == len(want) {
				for name, d := range m {
					durs[name] = append(durs[name], d)
				}
			}
		}
	}
	for _, l := range layers {
		sum += median(durs[l])
	}
	return sum, median(durs[call])
}

// pooled concatenates one replay series over the clients.
func (tr *tracer) pooled(get func(*clientTrace) []float64) []float64 {
	var out []float64
	for _, ct := range tr.clients {
		out = append(out, get(ct)...)
	}
	return out
}

// qerrP50 is the median time q-error, max(pred/actual, actual/pred), over
// the calibration log's priced observations.
func qerrP50(srv *service.Server) float64 {
	var q []float64
	for _, o := range srv.Calibrator().Log().Snapshot() {
		if o.Predicted > 0 && o.Actual > 0 {
			r := o.Predicted.Seconds() / o.Actual.Seconds()
			q = append(q, math.Max(r, 1/r))
		}
	}
	return median(q)
}
