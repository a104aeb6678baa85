package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"cote/internal/calib"
	"cote/internal/core"
	"cote/internal/cost"
	"cote/internal/faultinject"
	"cote/internal/fingerprint"
	"cote/internal/knobs"
	"cote/internal/modelio"
	"cote/internal/opt"
	"cote/internal/optctx"
	"cote/internal/query"
	"cote/internal/sqlparser"
	"cote/internal/workload"
)

// Config parameterizes the server. The zero value is usable: GOMAXPROCS
// workers, a 4x waiting line, 30s request timeout, a 1024-entry estimate
// cache, and admission control disabled until a budget is set or a model
// is calibrated.
type Config struct {
	// Workers bounds concurrently running estimations/optimizations
	// (default GOMAXPROCS — the work is CPU-bound).
	Workers int
	// Queue bounds requests waiting for a worker (default 4*Workers).
	Queue int
	// RequestTimeout bounds one estimate/optimize request, queueing
	// included (default 30s; negative disables).
	RequestTimeout time.Duration
	// CacheCapacity sizes the estimate cache (default
	// core.DefaultFingerprintCacheSize).
	CacheCapacity int
	// Budget is the admission controller's compilation-time budget for
	// POST /v1/optimize: requests whose predicted compilation time exceeds
	// it are rejected or downgraded. Zero disables admission control.
	Budget time.Duration
	// Downgrade makes the admission controller retry cheaper levels
	// instead of rejecting over-budget requests.
	Downgrade bool
	// Model seeds the compilation-time model (installed as the registry's
	// first version); POST /v1/calibrate and the online recalibrator
	// replace it at runtime.
	Model *core.TimeModel
	// Models, when non-nil, is a pre-loaded model registry (cmd/coted
	// restores one from -model-file); otherwise the server creates an
	// empty one. Config.Model, when also set, is installed on top.
	Models *calib.Registry
	// Calib parameterizes the online calibration loop: the observation
	// window, the drift detector, and the recalibration gates. The zero
	// value enables automatic recalibration with the calib defaults; set
	// Calib.DriftThreshold negative to track drift without auto-refitting.
	Calib calib.Config
	// MaxParallelism caps the per-request intra-query parallelism of
	// POST /v1/optimize (the DP round's worker fan-out). Zero or one keeps
	// every compile serial. When above one and Workers is left zero, the
	// worker pool defaults to GOMAXPROCS/MaxParallelism so that concurrent
	// requests times per-request workers never oversubscribes the machine.
	MaxParallelism int
	// BudgetFactor, when positive, arms the mid-flight budget abort on
	// POST /v1/optimize: a compile generating more than BudgetFactor times
	// its COTE-predicted plan count is aborted (and downgraded to the next
	// cheaper level when Downgrade is set) — the enforcement backstop for
	// when the prediction admission trusted turns out wrong. Requires a
	// calibrated model to have any effect. Zero disables the abort.
	BudgetFactor float64
	// MemBudget, when positive, bounds each compile's peak optimizer memory
	// in bytes, twice over: admission gates on the memory model's predicted
	// peak (reject or downgrade like the time budget), and an admitted
	// compile whose measured usage crosses the budget is aborted mid-flight
	// (and downgraded when Downgrade is set). Zero disables both.
	MemBudget int64
	// MaxQueue is the overload shedder's bound on the pool's waiting line:
	// a request arriving while MaxQueue requests already wait is shed with
	// 429 + Retry-After before any parsing (default Queue — shed exactly
	// where the pool would otherwise return a hard queue_full 503).
	MaxQueue int
	// ShedDeadline is the safety margin of deadline-aware shedding: a
	// request whose remaining deadline is below the projected queue wait
	// plus this margin is shed immediately instead of queued to die (zero
	// keeps the check armed with no margin; shedding then triggers only
	// when the projected wait alone exceeds the deadline).
	ShedDeadline time.Duration
}

// DefaultRequestTimeout bounds estimate/optimize requests when Config
// leaves RequestTimeout zero.
const DefaultRequestTimeout = 30 * time.Second

// Server is the estimation service: the registry, pool, cache, metrics and
// model behind the HTTP API. Its exported request methods are usable
// without HTTP (the benchmarks drive them directly).
type Server struct {
	cfg      Config
	registry *Registry
	pool     *Pool
	shed     *Shedder
	cache    *core.FingerprintCache
	metrics  *Metrics
	progress *progressTable

	// models is the versioned compilation-time model registry; calib is
	// the online loop feeding it from real optimizations.
	models *calib.Registry
	calib  *calib.Calibrator
}

// New returns a server with the config's defaults filled in. The knob
// clamps (parallelism floor, budget knobs disabling at zero) go through
// internal/knobs — the same defaulting path the optimizer layers use.
func New(cfg Config) *Server {
	cfg.MaxParallelism = knobs.Parallelism(cfg.MaxParallelism)
	cfg.BudgetFactor = knobs.BudgetFactor(cfg.BudgetFactor)
	cfg.MemBudget = knobs.MemBudget(cfg.MemBudget)
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0) / cfg.MaxParallelism
		if cfg.Workers < 1 {
			cfg.Workers = 1
		}
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 4 * cfg.Workers
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = cfg.Queue
	}
	models := cfg.Models
	if models == nil {
		models = calib.NewRegistry(0)
	}
	pool := NewPool(cfg.Workers, cfg.Queue)
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(),
		pool:     pool,
		shed:     newShedder(pool, cfg.MaxQueue, cfg.ShedDeadline),
		cache:    core.NewFingerprintCache(cfg.CacheCapacity),
		metrics:  NewMetrics(),
		progress: newProgressTable(),
		models:   models,
		calib:    calib.NewCalibrator(models, cfg.Calib),
	}
	if cfg.Model != nil {
		// Construction precedes any chaos plan; a seed install cannot trip
		// the model-swap fault point, so the error is ignored.
		_, _ = s.installModel(cfg.Model, "seed", 0, 0)
	}
	return s
}

// Registry exposes the catalog registry (cmd/coted preloads schemas).
func (s *Server) Registry() *Registry { return s.registry }

// Metrics exposes the metrics (tests assert on them).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Model returns the current compilation-time model (nil before
// calibration).
func (s *Server) Model() *core.TimeModel { return s.models.CurrentModel() }

// memModel returns the memory model predictions are priced with: the
// registry's calibrated one, or the structural default before any memory
// calibration ran.
func (s *Server) memModel() *core.MemModel {
	if m := s.models.CurrentMemModel(); m != nil {
		return m
	}
	return core.DefaultMemModel()
}

// SetModel installs m as a new model version (source "api"). An injected
// model-swap fault is swallowed here: the programmatic setter has no error
// surface, and the HTTP paths all go through installModel directly.
func (s *Server) SetModel(m *core.TimeModel) {
	_, _ = s.installModel(m, "api", 0, 0)
}

// installModel installs a model version and mirrors it into the metrics
// and the configured swap hook. The fault-injection point sits before the
// registry swap: a tripped install changes nothing — no version, no metrics
// tick, no persistence — exactly like a registry whose durable step refused.
func (s *Server) installModel(m *core.TimeModel, source string, samples int, fitErr float64) (*calib.ModelVersion, error) {
	if err := faultinject.Check(faultinject.PointModelSwap); err != nil {
		return nil, err
	}
	v := s.models.Install(m, source, samples, fitErr)
	s.metrics.ModelInstalls.Add()
	if s.cfg.Calib.OnSwap != nil {
		// Recalibrations run OnSwap through the calibrator; every other
		// install path mirrors the behaviour here so -model-file
		// persistence sees them all.
		s.cfg.Calib.OnSwap(v)
	}
	return v, nil
}

// Calibrator exposes the online calibration loop (cmd/coted wires its
// persistence hook; tests assert on its stats).
func (s *Server) Calibrator() *calib.Calibrator { return s.calib }

// Models exposes the versioned model registry.
func (s *Server) Models() *calib.Registry { return s.models }

// ParseLevel maps the wire names to optimization levels; the empty string
// selects inner2, the level the paper's experiments run at.
func ParseLevel(name string) (opt.Level, error) {
	switch name {
	case "", "inner2":
		return opt.LevelHighInner2, nil
	case "low", "greedy":
		return opt.LevelLow, nil
	case "leftdeep":
		return opt.LevelMediumLeftDeep, nil
	case "zigzag":
		return opt.LevelMediumZigZag, nil
	case "high":
		return opt.LevelHigh, nil
	}
	return 0, fmt.Errorf("service: unknown level %q (want low, leftdeep, zigzag, inner2 or high)", name)
}

// LevelName is the wire name of a level (the inverse of ParseLevel).
func LevelName(l opt.Level) string {
	switch l {
	case opt.LevelLow:
		return "low"
	case opt.LevelMediumLeftDeep:
		return "leftdeep"
	case opt.LevelMediumZigZag:
		return "zigzag"
	case opt.LevelHighInner2:
		return "inner2"
	case opt.LevelHigh:
		return "high"
	}
	return l.String()
}

// parseRequest resolves the catalog, level and SQL shared by the estimate
// and optimize requests.
func (s *Server) parseRequest(catalogName, levelName, sql string) (*RegistryEntry, opt.Level, *query.Block, error) {
	if catalogName == "" {
		return nil, 0, nil, badRequest("missing catalog")
	}
	entry, err := s.registry.Get(catalogName)
	if err != nil {
		return nil, 0, nil, notFound("%v", err)
	}
	level, err := ParseLevel(levelName)
	if err != nil {
		return nil, 0, nil, badRequest("%v", err)
	}
	if sql == "" {
		return nil, 0, nil, badRequest("missing sql")
	}
	parseStart := time.Now()
	blk, err := sqlparser.Parse(sql, entry.Catalog)
	s.metrics.ObserveStage(optctx.StageParse, 1, time.Since(parseStart))
	if err != nil {
		return nil, 0, nil, parseFailed(err)
	}
	return entry, level, blk, nil
}

// estimateFor returns the estimate of one (query, level): through the
// fingerprint-keyed cache when useCache is set, with concurrent identical
// misses collapsed into one enumeration by the cache's singleflight group.
// Every mode estimates the canonical rebuild of blk, so responses never
// depend on whether caching was on (raw-block enumeration counts are
// numbering-sensitive; see internal/fingerprint). Cached estimates carry no
// time prediction; callers price them with the current model.
//
// The cache key is the fingerprint, the level and the catalog's node count,
// namespaced by the catalog epoch: re-registering a name bumps its epoch, so
// estimates cached against the old statistics are never served again, while
// built-ins and first registrations (epoch 0) with identical schemas share
// entries. The serving path leaves the other core.Options knobs at their
// defaults.
//
// The returned cached flag reports that this request ran no enumeration of
// its own — an LRU hit or a wait on another request's in-flight run.
func (s *Server) estimateFor(ctx context.Context, entry *RegistryEntry, blk *query.Block, level opt.Level, useCache bool) (*core.Estimate, bool, error) {
	opts := core.Options{Level: level, Config: entry.Config}
	// Hash up front (cheap, needed for the key); rebuild the canonical block
	// only inside run, which executes solely when an enumeration is due.
	fp := fingerprint.Of(blk)
	run := func() (*core.Estimate, error) {
		est, err := Run(s.pool, ctx, func() (*core.Estimate, error) {
			canon, _, err := fingerprint.Canonical(blk)
			if err != nil {
				return nil, err
			}
			return core.EstimatePlansCtx(ctx, canon, opts)
		})
		if err == nil {
			// The enumerate stage moves only when an enumeration really ran:
			// the warm-path zero-enumeration guarantee is asserted on this
			// counter.
			s.metrics.ObserveStage(optctx.StageEnumerate, int64(est.Joins), est.Elapsed)
			s.metrics.EnumCandidatesVisited.AddN(int64(est.CandidatesVisited))
			s.metrics.EnumCandidatesSkipped.AddN(int64(est.CandidatesSkipped))
		}
		return est, err
	}
	if !useCache {
		est, err := run()
		return est, false, err
	}
	key := core.KeyFor(fp, opts)
	key.Namespace = entry.Epoch
	est, hit, shared, err := s.cache.Do(ctx, key, run)
	if err != nil {
		return nil, false, err
	}
	switch {
	case hit:
		s.metrics.CacheHits.Add()
	case shared:
		s.metrics.SharedFlights.Add()
	default:
		s.metrics.CacheMisses.Add()
	}
	return est, hit || shared, nil
}

// shedCheck runs the overload shedder and accounts the outcome. It runs
// before the request's own timeout is attached, so the deadline it tests is
// whatever the client (or HTTP layer) brought along.
func (s *Server) shedCheck(ctx context.Context) error {
	if err := s.shed.Admit(ctx); err != nil {
		s.metrics.ShedRequests.Add()
		return err
	}
	return nil
}

// requestCtx applies the configured per-request timeout.
func (s *Server) requestCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.RequestTimeout)
}

// EstimateRequest is the body of POST /v1/estimate.
type EstimateRequest struct {
	Catalog string `json:"catalog"`
	SQL     string `json:"sql"`
	Level   string `json:"level,omitempty"`
	NoCache bool   `json:"no_cache,omitempty"`
}

// EstimateResponse is the reply: the estimate plus cache provenance. The
// predicted fields inside the estimate are filled from the server's
// current model; ModelVersion names the registry version that priced them
// (zero when no model is installed), so clients can tell which model a
// cached estimate was re-priced with.
type EstimateResponse struct {
	Catalog      string         `json:"catalog"`
	Level        string         `json:"level"`
	Cached       bool           `json:"cached"`
	ModelVersion int            `json:"model_version,omitempty"`
	Estimate     *core.Estimate `json:"estimate"`
}

// Estimate runs the paper's plan-estimate mode for one request.
func (s *Server) Estimate(ctx context.Context, req EstimateRequest) (*EstimateResponse, error) {
	s.metrics.EstimateRequests.Add()
	// Shed before parsing: an overloaded server spends nothing on a request
	// it will refuse anyway.
	if err := s.shedCheck(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		d := time.Since(start)
		s.metrics.EstimateLatency.Observe(d)
		s.shed.observe(d)
	}()

	entry, level, blk, err := s.parseRequest(req.Catalog, req.Level, req.SQL)
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.requestCtx(ctx)
	defer cancel()
	est, cached, err := s.estimateFor(ctx, entry, blk, level, !req.NoCache)
	if err != nil {
		return nil, err
	}
	// Price a copy with the current model version, leaving the cached entry
	// prediction-free: a model swap can never serve a stale PredictedTime
	// (or PredictedPeakBytes) because predictions are never stored, only
	// the structural counts.
	out := *est
	out.PredictedTime = 0
	resp := &EstimateResponse{
		Catalog:  entry.Name,
		Level:    LevelName(level),
		Cached:   cached,
		Estimate: &out,
	}
	if v := s.models.Current(); v != nil {
		if v.Model != nil {
			out.PredictedTime = v.Model.Predict(out.Counts)
		}
		resp.ModelVersion = v.Version
	}
	out.PredictedPeakBytes = core.EstimateMemory(&out, s.memModel())
	return resp, nil
}

// EstimateBatchRequest is the body of POST /v1/estimate/batch: many
// statements against one catalog and level, estimated once per distinct
// structure.
type EstimateBatchRequest struct {
	Catalog    string   `json:"catalog"`
	Statements []string `json:"statements"`
	Level      string   `json:"level,omitempty"`
	NoCache    bool     `json:"no_cache,omitempty"`
}

// BatchItem is the per-statement outcome, in submission order.
type BatchItem struct {
	Fingerprint string `json:"fingerprint,omitempty"`
	// Deduped marks a statement answered by an earlier statement of this
	// batch with the same fingerprint: it ran no estimation of its own.
	Deduped bool `json:"deduped,omitempty"`
	// Cached reports the group's estimate came without any enumeration
	// (estimate-cache hit or shared in-flight run).
	Cached   bool           `json:"cached,omitempty"`
	Error    string         `json:"error,omitempty"`
	Estimate *core.Estimate `json:"estimate,omitempty"`
}

// EstimateBatchResponse is the reply: per-statement items plus the batch's
// dedup accounting (Distinct groups estimated, Deduped statements that rode
// along).
type EstimateBatchResponse struct {
	Catalog      string      `json:"catalog"`
	Level        string      `json:"level"`
	Distinct     int         `json:"distinct"`
	Deduped      int         `json:"deduped"`
	ModelVersion int         `json:"model_version,omitempty"`
	Items        []BatchItem `json:"items"`
}

// maxBatchStatements bounds one batch request; parameterized workloads
// should chunk beyond this.
const maxBatchStatements = 256

// EstimateBatch estimates a slice of statements, deduplicating them by
// structural fingerprint so each distinct structure is estimated once. A
// statement that fails to parse (or whose group's estimation fails) gets a
// per-item error without failing the batch; whole-request problems (bad
// catalog, dead deadline) fail the request.
func (s *Server) EstimateBatch(ctx context.Context, req EstimateBatchRequest) (*EstimateBatchResponse, error) {
	s.metrics.BatchRequests.Add()
	if err := s.shedCheck(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		d := time.Since(start)
		s.metrics.EstimateLatency.Observe(d)
		s.shed.observe(d)
	}()

	if req.Catalog == "" {
		return nil, badRequest("missing catalog")
	}
	entry, err := s.registry.Get(req.Catalog)
	if err != nil {
		return nil, notFound("%v", err)
	}
	level, err := ParseLevel(req.Level)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if len(req.Statements) == 0 {
		return nil, badRequest("missing statements")
	}
	if len(req.Statements) > maxBatchStatements {
		return nil, badRequest("batch of %d statements exceeds the limit of %d", len(req.Statements), maxBatchStatements)
	}
	s.metrics.BatchStatements.AddN(int64(len(req.Statements)))
	ctx, cancel := s.requestCtx(ctx)
	defer cancel()

	type group struct {
		blk   *query.Block
		items []int
	}
	resp := &EstimateBatchResponse{
		Catalog: entry.Name,
		Level:   LevelName(level),
		Items:   make([]BatchItem, len(req.Statements)),
	}
	groups := make(map[fingerprint.FP]*group)
	var order []fingerprint.FP
	for i, sql := range req.Statements {
		it := &resp.Items[i]
		if sql == "" {
			it.Error = "missing sql"
			continue
		}
		parseStart := time.Now()
		blk, err := sqlparser.Parse(sql, entry.Catalog)
		s.metrics.ObserveStage(optctx.StageParse, 1, time.Since(parseStart))
		if err != nil {
			it.Error = fmt.Sprintf("parse: %v", err)
			continue
		}
		fp := fingerprint.Of(blk)
		it.Fingerprint = fp.String()
		g, ok := groups[fp]
		if !ok {
			g = &group{blk: blk}
			groups[fp] = g
			order = append(order, fp)
		} else {
			it.Deduped = true
			resp.Deduped++
		}
		g.items = append(g.items, i)
	}
	resp.Distinct = len(order)
	s.metrics.BatchDeduped.AddN(int64(resp.Deduped))

	var m *core.TimeModel
	if v := s.models.Current(); v != nil {
		m = v.Model
		resp.ModelVersion = v.Version
	}
	for _, fp := range order {
		g := groups[fp]
		est, cached, err := s.estimateFor(ctx, entry, g.blk, level, !req.NoCache)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err // the whole batch is dead, not one group
			}
			for _, i := range g.items {
				resp.Items[i].Error = err.Error()
			}
			continue
		}
		out := *est
		out.PredictedTime = 0
		if m != nil {
			out.PredictedTime = m.Predict(out.Counts)
		}
		out.PredictedPeakBytes = core.EstimateMemory(&out, s.memModel())
		for _, i := range g.items {
			resp.Items[i].Cached = cached
			resp.Items[i].Estimate = &out
		}
	}
	return resp, nil
}

// OptimizeRequest is the body of POST /v1/optimize.
type OptimizeRequest struct {
	Catalog string `json:"catalog"`
	SQL     string `json:"sql"`
	Level   string `json:"level,omitempty"`
	// BudgetMS overrides the server's admission budget for this request
	// (milliseconds; negative disables admission).
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// OnOverBudget overrides the over-budget behaviour: "reject" or
	// "downgrade" (default: the server's configuration).
	OnOverBudget string `json:"on_over_budget,omitempty"`
	// Parallelism requests intra-query parallel enumeration for this
	// compile, clamped to [1, Config.MaxParallelism]. Zero means serial.
	Parallelism int `json:"parallelism,omitempty"`
	// MemBudgetBytes overrides the server's memory budget for this request
	// (bytes; negative disables the memory budget).
	MemBudgetBytes int64 `json:"mem_budget_bytes,omitempty"`
}

// OptimizeResponse is the reply: the admission decision and — unless
// rejected — the chosen plan with its instrumentation.
type OptimizeResponse struct {
	Catalog   string             `json:"catalog"`
	Level     string             `json:"level,omitempty"`
	Admission *AdmissionDecision `json:"admission"`
	Plan      string             `json:"plan,omitempty"`
	Cost      float64            `json:"cost,omitempty"`
	Rows      float64            `json:"rows,omitempty"`
	ElapsedNS int64              `json:"elapsed_ns,omitempty"`
	Counts    core.PlanCounts    `json:"plan_counts"`
	// BudgetAborted lists levels whose compile started and was aborted
	// mid-flight because generated plans overran the prediction by more
	// than the server's budget factor; the final plan (if any) came from a
	// cheaper level.
	BudgetAborted []string `json:"budget_aborted,omitempty"`
	// MemAborted lists levels aborted mid-flight because measured optimizer
	// memory crossed the memory budget.
	MemAborted []string `json:"mem_aborted,omitempty"`
	// PeakBytes is the measured durable memory high-water mark of the
	// compile that produced the plan.
	PeakBytes int64 `json:"peak_bytes,omitempty"`
	// OverloadRungs is how many level-ladder rungs the overload controller
	// walked this request down before admission (0 when unloaded); the
	// admission decision's requested level stays the client's original.
	OverloadRungs int `json:"overload_rungs,omitempty"`
}

// Optimize runs a real optimization behind admission control: the cheap
// estimator prices the requested level first and the full compile runs
// only within budget (Figure 1's meta-optimizer as a serving guardrail).
func (s *Server) Optimize(ctx context.Context, req OptimizeRequest) (*OptimizeResponse, error) {
	s.metrics.OptimizeRequests.Add()
	if err := s.shedCheck(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() {
		d := time.Since(start)
		s.metrics.OptimizeLatency.Observe(d)
		s.shed.observe(d)
	}()

	entry, level, blk, err := s.parseRequest(req.Catalog, req.Level, req.SQL)
	if err != nil {
		return nil, err
	}
	// The overload ladder: sustained queue pressure short of shedding walks
	// the request down the same downgrade rungs the admission controller
	// uses, before admission prices anything — a loaded server compiles
	// cheaper plans instead of slower ones.
	requested := level
	overloadRungs := 0
	if rungs := s.shed.PressureRungs(); rungs > 0 {
		level, overloadRungs = downgradeForPressure(level, rungs)
		if overloadRungs > 0 {
			s.metrics.OverloadDowngrades.Add()
		}
	}
	budget := s.cfg.Budget
	if req.BudgetMS != 0 {
		budget = time.Duration(req.BudgetMS) * time.Millisecond
	}
	memBudget := s.cfg.MemBudget
	if req.MemBudgetBytes != 0 {
		memBudget = knobs.MemBudget(req.MemBudgetBytes)
	}
	downgrade := s.cfg.Downgrade
	switch req.OnOverBudget {
	case "":
	case "reject":
		downgrade = false
	case "downgrade":
		downgrade = true
	default:
		return nil, badRequest("unknown on_over_budget %q (want reject or downgrade)", req.OnOverBudget)
	}
	ctx, cancel := s.requestCtx(ctx)
	defer cancel()

	predict := func(l opt.Level) (time.Duration, bool, error) {
		m := s.Model()
		if m == nil {
			return 0, false, nil
		}
		est, _, err := s.estimateFor(ctx, entry, blk, l, true)
		if err != nil {
			return 0, false, err
		}
		return m.Predict(est.Counts), true, nil
	}
	predictMem := func(l opt.Level) (int64, error) {
		est, _, err := s.estimateFor(ctx, entry, blk, l, true)
		if err != nil {
			return 0, err
		}
		return core.EstimateMemory(est, s.memModel()), nil
	}
	dec, err := admit(level, budget, memBudget, downgrade, predict, predictMem)
	if err != nil {
		return nil, err
	}
	// The decision reports the client's requested level, not the one the
	// overload ladder already lowered it to.
	dec.RequestedLevel = LevelName(requested)
	resp := &OptimizeResponse{Catalog: entry.Name, Admission: dec, OverloadRungs: overloadRungs}
	switch dec.Action {
	case AdmitAccept:
		s.metrics.AdmissionAccepted.Add()
	case AdmitBypass:
		s.metrics.AdmissionBypassed.Add()
	case AdmitDowngrade:
		s.metrics.AdmissionDowngraded.Add()
	case AdmitReject:
		s.metrics.AdmissionRejected.Add()
		return resp, nil
	}
	admitted, err := ParseLevel(dec.AdmittedLevel)
	if err != nil {
		return nil, err
	}
	parallelism := knobs.Parallelism(req.Parallelism)
	if parallelism > s.cfg.MaxParallelism {
		parallelism = s.cfg.MaxParallelism
	}
	// The compile runs under an execution context: the request deadline
	// cancels it cooperatively, the COTE prediction feeds the live progress
	// meter (/v1/progress), and — with a budget factor or memory budget
	// configured — an overrun aborts it and drops a level, re-entering this
	// loop.
	for {
		oc := optctx.New(ctx)
		var predictedTime time.Duration
		if admitted != opt.LevelLow {
			// The greedy floor runs unbudgeted, like admission: it is the
			// level every downgrade must be able to land on.
			oc.SetMemBudget(memBudget)
			if plans, t, ok := s.predictLevel(ctx, entry, blk, admitted); ok {
				predictedTime = t
				oc.SetPredictedPlans(plans)
				if s.cfg.BudgetFactor > 0 {
					oc.SetPlanBudget(int64(s.cfg.BudgetFactor * float64(plans)))
				}
			}
		}
		pr := s.progress.add(entry.Name, LevelName(admitted), oc)
		res, err := Run(s.pool, ctx, func() (*opt.Result, error) {
			return opt.OptimizeWith(oc, blk, opt.Options{Level: admitted, Config: entry.Config, Parallelism: parallelism})
		})
		s.progress.remove(pr)
		s.metrics.ObserveStages(oc)
		if err == nil {
			resp.Level = LevelName(admitted)
			resp.Plan = res.Plan.String()
			resp.Cost = res.Plan.Cost
			resp.Rows = res.Plan.Card
			resp.ElapsedNS = res.Elapsed.Nanoseconds()
			resp.Counts = core.CountsFrom(res.TotalCounters())
			resp.PeakBytes = res.Resources.DurablePeakBytes
			s.metrics.ObserveResources(res.Resources)
			// Feed the calibration loop: every real optimization is a
			// training sample, the priced ones score the model's drift, and
			// the accounted ones (paired with the estimate's structural
			// counts) train the memory model.
			s.metrics.Observations.Add()
			obs := core.ObservationFrom(
				res.TotalCounters(), admitted, fingerprint.Of(blk), predictedTime, res.Elapsed)
			obs.PeakBytes = res.Resources.DurablePeakBytes
			if est, _, err := s.estimateFor(ctx, entry, blk, admitted, true); err == nil {
				for _, be := range est.Blocks {
					obs.Entries += be.Entries
					obs.PropertyBytes += be.PropertyBytes
				}
			}
			s.calib.ObserveCompile(obs)
			return resp, nil
		}
		switch {
		case errors.Is(err, optctx.ErrBudgetExceeded):
			s.metrics.BudgetAborts.Add()
			resp.BudgetAborted = append(resp.BudgetAborted, LevelName(admitted))
		case errors.Is(err, optctx.ErrMemBudgetExceeded):
			s.metrics.MemBudgetAborts.Add()
			resp.MemAborted = append(resp.MemAborted, LevelName(admitted))
		default:
			return nil, err
		}
		if !downgrade {
			return nil, err
		}
		admitted = admitted.NextLower()
	}
}

// predictLevel returns the COTE-predicted generated-plan total and
// compilation time for one level — the progress denominator, the budget
// baseline, and the prediction the calibration loop scores against the
// measured time. It reports false when no model is calibrated (no basis
// for bounding) or the estimate itself fails (the compile must still run).
func (s *Server) predictLevel(ctx context.Context, entry *RegistryEntry, blk *query.Block, level opt.Level) (int64, time.Duration, bool) {
	m := s.Model()
	if m == nil {
		return 0, 0, false
	}
	est, _, err := s.estimateFor(ctx, entry, blk, level, true)
	if err != nil {
		return 0, 0, false
	}
	return int64(est.Counts.Total()), m.Predict(est.Counts), true
}

// CalibrateRequest is the body of POST /v1/calibrate: fit the time model
// on a named built-in workload.
type CalibrateRequest struct {
	// Workload is one of linear, star, random, real1, real2, tpch.
	Workload string `json:"workload"`
	// Nodes selects the serial (1, default) or 4-node parallel variant.
	Nodes int `json:"nodes,omitempty"`
}

// CalibrateResponse reports the fitted model.
type CalibrateResponse struct {
	Workload string `json:"workload"`
	Points   int    `json:"points"`
	Model    string `json:"model"`
}

// namedWorkload builds a calibration workload by name (the shared modelio
// table), turning an unknown name into a 400.
func namedWorkload(name string, nodes int) (*workload.Workload, error) {
	w, err := modelio.NamedWorkload(name, nodes)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return w, nil
}

// Calibrate compiles a named workload for real at two levels, fits the
// per-method constants (core.Calibrate), and installs the model for
// admission control and predictions. The compilations run through the
// worker pool one query at a time, so a calibration shares the process
// fairly with serving traffic.
func (s *Server) Calibrate(ctx context.Context, req CalibrateRequest) (*CalibrateResponse, error) {
	s.metrics.CalibrateRequests.Add()
	nodes := req.Nodes
	if nodes == 0 {
		nodes = 1
	}
	if nodes != 1 && nodes != 4 {
		return nil, badRequest("nodes must be 1 or 4, got %d", nodes)
	}
	w, err := namedWorkload(req.Workload, nodes)
	if err != nil {
		return nil, err
	}
	cfg := cost.Serial
	if nodes > 1 {
		cfg = cost.Parallel4
	}
	var training []core.TrainingPoint
	for _, q := range w.Queries {
		// Two levels per query decorrelate the per-method counts, keeping
		// the regression well conditioned (as experiments.TrainModel does).
		for _, level := range []opt.Level{opt.LevelHighInner2, opt.LevelMediumLeftDeep} {
			res, err := Run(s.pool, ctx, func() (*opt.Result, error) {
				return opt.Optimize(q.Block, opt.Options{Level: level, Config: cfg})
			})
			if err != nil {
				return nil, fmt.Errorf("calibrate %s: %w", q.Name, err)
			}
			training = append(training, core.TrainingPointFrom(res.TotalCounters(), res.Elapsed))
		}
	}
	model, err := core.Calibrate(training)
	if err != nil {
		return nil, badRequest("calibration failed: %v", err)
	}
	if _, err := s.installModel(model, "calibrate", len(training), 0); err != nil {
		return nil, err
	}
	return &CalibrateResponse{Workload: w.Name, Points: len(training), Model: model.String()}, nil
}

// --- HTTP layer ---

// Handler returns the HTTP API:
//
//	POST /v1/estimate       estimate a query's compilation
//	POST /v1/optimize       optimize behind admission control
//	POST /v1/calibrate      fit the time model on a named workload
//	GET  /v1/model          current model version + drift
//	POST /v1/model          install a model or roll back to a version
//	GET  /v1/model/history  retained model versions
//	GET  /v1/catalogs       list registered catalogs
//	POST /v1/catalogs       upload a JSON catalog
//	GET  /v1/progress       live progress of in-flight optimizations
//	GET  /metrics           JSON metrics snapshot
//	GET  /healthz           liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/estimate/batch", s.handleEstimateBatch)
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("POST /v1/calibrate", s.handleCalibrate)
	mux.HandleFunc("GET /v1/model", s.handleModelGet)
	mux.HandleFunc("POST /v1/model", s.handleModelPost)
	mux.HandleFunc("GET /v1/model/history", s.handleModelHistory)
	mux.HandleFunc("GET /v1/catalogs", s.handleCatalogList)
	mux.HandleFunc("POST /v1/catalogs", s.handleCatalogUpload)
	mux.HandleFunc("GET /v1/progress", s.handleProgress)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// maxBodyBytes bounds request bodies (catalog uploads included).
const maxBodyBytes = 1 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("body: %v", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps service errors through the taxonomy (see errors.go) to an
// HTTP status, a machine-readable code, and — for retryable overload classes
// — a Retry-After hint.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.metrics.Errors.Add()
	status, code, retryAfter := classify(err)
	switch code {
	case CodeQueueFull:
		s.metrics.QueueRejected.Add()
	case CodeTimeout:
		s.metrics.Timeouts.Add()
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	}
	writeJSON(w, status, ErrorBody{Error: err.Error(), Code: code})
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.Estimate(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEstimateBatch(w http.ResponseWriter, r *http.Request) {
	var req EstimateBatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.EstimateBatch(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.Optimize(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	status := http.StatusOK
	if resp.Admission != nil && resp.Admission.Action == AdmitReject {
		status = http.StatusTooManyRequests
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleCalibrate(w http.ResponseWriter, r *http.Request) {
	var req CalibrateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.Calibrate(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCatalogList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"catalogs": s.registry.List()})
}

func (s *Server) handleCatalogUpload(w http.ResponseWriter, r *http.Request) {
	var def CatalogDef
	if err := decodeJSON(w, r, &def); err != nil {
		s.writeError(w, err)
		return
	}
	entry, err := s.registry.Register(def)
	if err != nil {
		// Schema problems are the client's fault (400); an injected
		// registration fault is the server's (503 dependency_fault) and must
		// not be laundered into a bad request.
		if !errors.Is(err, faultinject.ErrInjected) {
			err = badRequest("%v", err)
		}
		s.writeError(w, err)
		return
	}
	s.metrics.CatalogUploads.Add()
	writeJSON(w, http.StatusCreated, CatalogInfo{
		Name:    entry.Name,
		Tables:  entry.Catalog.NumTables(),
		Nodes:   entry.Config.Nodes,
		BuiltIn: false,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot(s.pool, s.cache, s.calib, s.shed))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
