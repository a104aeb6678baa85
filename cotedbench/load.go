package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cote/cotedbench/sqlgen"
	"cote/internal/calib"
	"cote/internal/service"
)

// Latency classes: one per route, plus the workload's heavy request class
// (batches on warm-advisor, level-high estimates on cold-estimate, compiles
// on admit-optimize).
const (
	cEstimate = iota
	cBatch
	cOptimize
	cHeavy
	numClasses
)

var classNames = [numClasses]string{"estimate", "batch", "optimize", "heavy"}

// target is one running server: the service behind a real loopback
// listener.
type target struct {
	srv  *service.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startTarget() (*target, error) {
	n := runtime.NumCPU()
	srv := service.New(service.Config{
		Workers:        n,
		MaxParallelism: n,
		CacheCapacity:  sqlgen.CacheCapacity,
		// A fixed model: admission decisions repeat from run to run.
		Calib: calib.Config{DriftThreshold: -1},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &target{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		_ = t.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return t, nil
}

func (t *target) close() {
	_ = t.hs.Close()
	<-t.done
}

// conn is one client connection: an HTTP client with a single kept-alive
// connection and a reusable response buffer.
type conn struct {
	hc  *http.Client
	tr  *http.Transport
	buf bytes.Buffer
}

func newConn() *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status and body (valid until the
// next call).
func (c *conn) do(base string, k kind, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(base+routes[k], "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// get fetches a JSON document.
func (c *conn) get(base, path string, v any) error {
	resp, err := c.hc.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// setup brings one server from construction to ready: catalog
// registration, model install and the cache warm-up. It returns the
// elapsed time.
func setup(w *workload, model []byte) (*target, time.Duration, error) {
	start := time.Now()
	t, err := startTarget()
	if err != nil {
		return nil, 0, err
	}
	c := newConn()
	defer c.close()
	fail := func(err error) (*target, time.Duration, error) {
		t.close()
		return nil, 0, err
	}
	if w.uploadsCatalog {
		if st, b, err := c.do(t.base, kUpload, mustJSON(sqlgen.AdvisorDef())); err != nil || st != http.StatusCreated {
			return fail(fmt.Errorf("register advisor catalog: %d %s %v", st, b, err))
		}
	}
	if st, b, err := c.do(t.base, kModel, model); err != nil || st != http.StatusOK {
		return fail(fmt.Errorf("install model: %d %s %v", st, b, err))
	}
	for _, req := range w.warmup {
		if st, b, err := c.do(t.base, req.kind, req.body); err != nil || st != http.StatusOK {
			return fail(fmt.Errorf("warm-up: %d %s %v", st, b, err))
		}
	}
	return t, time.Since(start), nil
}

// obsKey and obsVal fold estimate responses: every response for one
// (structure, level) should carry the same structural fields, so a client
// keeps each distinct value once with its count, and the oracle checks the
// distinct values after the timed phase.
type obsKey struct {
	sid   int
	level string
}

type obsVal struct {
	counts      [4]int // mgjn, nljn, hsjn, total
	joins       int
	pairs       int
	blocks      int
	visited     int
	skipped     int
	memLower    int64
	peak        int64
	predictedOK bool // predicted_time_ns > 0: the installed model priced it
	dedupOK     bool // batch items: deduped exactly when an earlier item shares the structure
}

type optKey struct{ sid, variant int }

type optVal struct {
	action string
	level  string
	counts [4]int
	cost   float64
	rows   float64
	rungs  int
}

// estimateWire is the part of core.Estimate's JSON form the oracle checks.
type estimateWire struct {
	Counts struct {
		MGJN  int `json:"mgjn"`
		NLJN  int `json:"nljn"`
		HSJN  int `json:"hsjn"`
		Total int `json:"total"`
	} `json:"counts"`
	Joins                int   `json:"joins"`
	Pairs                int   `json:"pairs"`
	Blocks               int   `json:"blocks"`
	CandidatesVisited    int   `json:"candidates_visited"`
	CandidatesSkipped    int   `json:"candidates_skipped"`
	PredictedTimeNS      int64 `json:"predicted_time_ns"`
	PredictedMemoryBytes int64 `json:"predicted_memory_bytes"`
	PeakBytes            int64 `json:"peak_bytes"`
}

func (e *estimateWire) val() obsVal {
	return obsVal{
		counts:      [4]int{e.Counts.MGJN, e.Counts.NLJN, e.Counts.HSJN, e.Counts.Total},
		joins:       e.Joins,
		pairs:       e.Pairs,
		blocks:      e.Blocks,
		visited:     e.CandidatesVisited,
		skipped:     e.CandidatesSkipped,
		memLower:    e.PredictedMemoryBytes,
		peak:        e.PeakBytes,
		predictedOK: e.PredictedTimeNS > 0,
	}
}

type estimateResp struct {
	Estimate *estimateWire `json:"estimate"`
}

type batchResp struct {
	Distinct int `json:"distinct"`
	Deduped  int `json:"deduped"`
	Items    []struct {
		Deduped  bool          `json:"deduped"`
		Error    string        `json:"error"`
		Estimate *estimateWire `json:"estimate"`
	} `json:"items"`
}

type optimizeResp struct {
	Level     string `json:"level"`
	Admission *struct {
		Action        string `json:"action"`
		AdmittedLevel string `json:"admitted_level"`
	} `json:"admission"`
	Cost          float64 `json:"cost"`
	Rows          float64 `json:"rows"`
	OverloadRungs int     `json:"overload_rungs"`
	Counts        struct {
		MGJN  int `json:"mgjn"`
		NLJN  int `json:"nljn"`
		HSJN  int `json:"hsjn"`
		Total int `json:"total"`
	} `json:"plan_counts"`
}

// sample is one successful request: when it completed, as an offset from
// the phase start, and how long it took, both in ns.
type sample struct{ end, ns int64 }

// stats is one client's record of a timed phase.
type stats struct {
	lat       [numClasses][]sample
	done      []int64 // completion offsets of every successful request
	attempted int
	ok        int
	failures  map[string]int // failure reason -> count
	estimates map[obsKey]map[obsVal]int
	optimizes map[optKey]map[optVal]int
}

func newStats() *stats {
	return &stats{
		failures:  map[string]int{},
		estimates: map[obsKey]map[obsVal]int{},
		optimizes: map[optKey]map[optVal]int{},
	}
}

func (s *stats) fail(reason string) { s.failures[reason]++ }

// fold adds n observations of v under k.
func fold[K, V comparable](m map[K]map[V]int, k K, v V, n int) {
	if m[k] == nil {
		m[k] = map[V]int{}
	}
	m[k][v] += n
}

// merge folds other into s.
func (s *stats) merge(o *stats) {
	for i := range s.lat {
		s.lat[i] = append(s.lat[i], o.lat[i]...)
	}
	s.done = append(s.done, o.done...)
	s.attempted += o.attempted
	s.ok += o.ok
	for k, v := range o.failures {
		s.failures[k] += v
	}
	for k, vals := range o.estimates {
		for v, n := range vals {
			fold(s.estimates, k, v, n)
		}
	}
	for k, vals := range o.optimizes {
		for v, n := range vals {
			fold(s.optimizes, k, v, n)
		}
	}
}

// record checks the transport-level outcome of one request and folds its
// response. It reports whether the request succeeded.
func (s *stats) record(req *request, status int, body []byte, err error) bool {
	s.attempted++
	if err != nil {
		s.fail("transport error")
		return false
	}
	want := http.StatusOK
	if req.kind == kUpload {
		want = http.StatusCreated
	}
	if status != want {
		s.fail(fmt.Sprintf("%s status %d", routes[req.kind], status))
		return false
	}
	switch req.kind {
	case kEstimate:
		var resp estimateResp
		if err := json.Unmarshal(body, &resp); err != nil || resp.Estimate == nil {
			s.fail("estimate: undecodable response")
			return false
		}
		v := resp.Estimate.val()
		v.dedupOK = true
		fold(s.estimates, obsKey{req.sid, req.level}, v, 1)
	case kBatch:
		var resp batchResp
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Items) != len(req.items) {
			s.fail("batch: undecodable response")
			return false
		}
		seen := map[int]bool{}
		for i, it := range resp.Items {
			sid := req.items[i]
			if it.Error != "" || it.Estimate == nil {
				s.fail("batch: item error")
				return false
			}
			v := it.Estimate.val()
			v.dedupOK = it.Deduped == seen[sid]
			seen[sid] = true
			fold(s.estimates, obsKey{sid, req.level}, v, 1)
		}
		if resp.Distinct != len(seen) || resp.Deduped != len(resp.Items)-len(seen) {
			s.fail("batch: distinct/deduped totals disagree with the items")
			return false
		}
	case kOptimize:
		var resp optimizeResp
		if err := json.Unmarshal(body, &resp); err != nil || resp.Admission == nil {
			s.fail("optimize: undecodable response")
			return false
		}
		v := optVal{
			action: resp.Admission.Action, level: resp.Level,
			counts: [4]int{resp.Counts.MGJN, resp.Counts.NLJN, resp.Counts.HSJN, resp.Counts.Total},
			cost:   resp.Cost, rows: resp.Rows, rungs: resp.OverloadRungs,
		}
		fold(s.optimizes, optKey{req.sid, req.variant}, v, 1)
	}
	s.ok++
	return true
}

// source hands a client its next request: its own ring, or the shared
// cycle through an atomic cursor.
type source struct {
	w      *workload
	cursor atomic.Int64
}

func (src *source) next(client int, i int) *request {
	if src.w.cycle != nil {
		n := src.cursor.Add(1) - 1
		return src.w.cycle[n%int64(len(src.w.cycle))]
	}
	ring := src.w.rings[client]
	return ring[i%len(ring)]
}

// phaseResult is a timed phase's outcome.
type phaseResult struct {
	st       *stats
	elapsed  time.Duration
	alloc    uint64        // TotalAlloc delta, bytes
	cpu      time.Duration // process CPU time (user + system) delta
	heapPeak uint64        // largest sampled live heap, bytes
	before   metricsDoc
	after    metricsDoc
}

// afterFunc runs after each HTTP call, outside its latency; the traced run
// hooks its in-process call and layer replay here.
type afterFunc func(client int, req *request, reqID uint64, httpStart, httpEnd time.Time)

// runPhase drives the closed loop: each client sends its next request as
// soon as the previous one completes, until the duration is up.
func runPhase(t *target, src *source, d time.Duration, after afterFunc, pos *[clients]int) (*phaseResult, error) {
	mc := newConn()
	defer mc.close()
	res := &phaseResult{}
	if err := mc.get(t.base, "/metrics", &res.before); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		res.heapPeak = sampleHeap(stop)
	}()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	per := make([]*stats, clients)
	var reqIDs atomic.Uint64
	for c := 0; c < clients; c++ {
		per[c] = newStats()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := newConn()
			defer cn.close()
			st := per[c]
			for time.Now().Before(deadline) {
				req := src.next(c, pos[c])
				pos[c]++
				t0 := time.Now()
				status, body, err := cn.do(t.base, req.kind, req.body)
				t1 := time.Now()
				if st.record(req, status, body, err) {
					smp := sample{end: t1.Sub(start).Nanoseconds(), ns: t1.Sub(t0).Nanoseconds()}
					st.done = append(st.done, smp.end)
					switch req.kind {
					case kEstimate:
						st.lat[cEstimate] = append(st.lat[cEstimate], smp)
					case kBatch:
						st.lat[cBatch] = append(st.lat[cBatch], smp)
					case kOptimize:
						st.lat[cOptimize] = append(st.lat[cOptimize], smp)
					}
					if req.heavy {
						st.lat[cHeavy] = append(st.lat[cHeavy], smp)
					}
				}
				if after != nil {
					after(c, req, reqIDs.Add(1), t0, t1)
				}
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	close(stop)
	samplerDone.Wait()
	res.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	res.st = newStats()
	for _, s := range per {
		res.st.merge(s)
	}
	if err := mc.get(t.base, "/metrics", &res.after); err != nil {
		return nil, err
	}
	return res, nil
}

// processCPU is the process's CPU time so far, user plus system. Unlike
// wall time it does not grow while other tenants of the machine hold the
// processors.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windows is how many equal spans a phase is cut into for reporting: each
// timing and the throughput are computed per span and the median over the
// spans is reported, so that a burst of interference from outside the
// process moves one span, not the figure.
const windows = 10

// perWindow applies f to each span's values and returns the median of the
// results over the spans that have any.
func perWindow[T any](items []T, end func(T) int64, elapsed time.Duration, f func([]T, time.Duration) float64) float64 {
	span := elapsed / windows
	buckets := make([][]T, windows)
	for _, it := range items {
		w := int(time.Duration(end(it)) / span)
		if w >= windows {
			w = windows - 1
		}
		buckets[w] = append(buckets[w], it)
	}
	var vals []float64
	for _, b := range buckets {
		if len(b) > 0 {
			vals = append(vals, f(b, span))
		}
	}
	return median(vals)
}

// windowedQuantileMS is the median over spans of each span's q-quantile
// latency, in ms.
func windowedQuantileMS(s []sample, elapsed time.Duration, q float64) float64 {
	return perWindow(s, func(x sample) int64 { return x.end }, elapsed, func(b []sample, _ time.Duration) float64 {
		ns := make([]int64, len(b))
		for i, x := range b {
			ns[i] = x.ns
		}
		return quantileMS(ns, q)
	})
}

// windowedRate is the median over spans of each span's completions per
// second.
func windowedRate(done []int64, elapsed time.Duration) float64 {
	return perWindow(done, func(x int64) int64 { return x }, elapsed, func(b []int64, span time.Duration) float64 {
		return float64(len(b)) / span.Seconds()
	})
}

// quantileMS returns the q-quantile (nearest rank) of ns values in
// milliseconds, sorting them in place.
func quantileMS(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	i := int(q*float64(len(ns))+0.5) - 1
	i = max(0, min(i, len(ns)-1))
	return float64(ns[i]) / 1e6
}
