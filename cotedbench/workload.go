package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"cote/cotedbench/sqlgen"
	"cote/internal/service"
)

// Workload names.
const (
	warmAdvisor   = "warm-advisor"
	coldEstimate  = "cold-estimate"
	admitOptimize = "admit-optimize"
)

var workloadNames = []string{warmAdvisor, coldEstimate, admitOptimize}

// Request kinds, one per route the benchmark sends.
type kind int

const (
	kEstimate kind = iota
	kBatch
	kOptimize
	kUpload
	kModel
)

var routes = [...]string{
	kEstimate: "/v1/estimate",
	kBatch:    "/v1/estimate/batch",
	kOptimize: "/v1/optimize",
	kUpload:   "/v1/catalogs",
	kModel:    "/v1/model",
}

// Workload constants.
const (
	clients        = 2    // closed-loop connections (nproc on the reference host)
	batchSize      = 32   // statements per /v1/estimate/batch
	batchEvery     = 10   // warm-advisor: one request in batchEvery is a batch
	ringSize       = 4096 // pre-built requests per client; client 0 re-uploads the advisor catalog once a ring
	highEvery      = 3    // cold-estimate: one structure in highEvery runs at level high
	budgetMS       = 10   // admit-optimize: compile-time budget per /v1/optimize
	zipfS          = 1.1  // warm-advisor: Zipf skew over the structure pool
	admitLevel     = "inner2"
	admitSpellings = 4  // admit-optimize: fixed spellings per structure
	requestLevel   = "" // estimate level field left to the server default (inner2)
)

// request is one pre-built HTTP request and what the oracle needs to check
// its response.
type request struct {
	kind  kind
	body  []byte
	heavy bool
	// sid indexes the workload's structures (estimate, optimize); items
	// lists the structure of every batch statement.
	sid     int
	variant int // admit-optimize: which of the structure's spellings
	items   []int
	level   string
	// sql is the single statement's text (replayed by the traced run).
	sql string
}

// workload is everything a run sends, built from the seed before set-up.
type workload struct {
	name    string
	structs []*sqlgen.Structure
	cats    map[string]sqlgen.Catalog
	// levels is the level each structure is estimated at ("" = inner2).
	levels []string
	// warmup is sent once per set-up, before timing starts.
	warmup []*request
	// rings are per-client request sequences, cycled; cycle, when set,
	// is one sequence shared by all clients through an atomic cursor.
	rings [clients][]*request
	cycle []*request
	// spellings are admit-optimize's fixed texts per structure.
	spellings [][]string
	// uploadsCatalog marks workloads that register the advisor catalog.
	uploadsCatalog bool
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request structs are marshaled
	}
	return b
}

func estimateReq(sid int, sql, catalog, level string, heavy bool) *request {
	return &request{
		kind: kEstimate, sid: sid, level: level, heavy: heavy, sql: sql,
		body: mustJSON(service.EstimateRequest{Catalog: catalog, SQL: sql, Level: level}),
	}
}

// buildWorkload generates the named workload's statements and request
// sequences from the seed.
func buildWorkload(name string, seed int64) (*workload, error) {
	cats, err := sqlgen.Catalogs()
	if err != nil {
		return nil, err
	}
	w := &workload{name: name, cats: cats}
	r := rand.New(rand.NewSource(seed))
	switch name {
	case warmAdvisor:
		w.structs, err = sqlgen.WarmPool(seed, cats)
		if err == nil {
			w.buildWarm(r)
		}
	case coldEstimate:
		w.structs, err = sqlgen.ColdPool(seed, cats)
		if err == nil {
			w.buildCold(r)
		}
	case admitOptimize:
		w.structs, err = sqlgen.AdmitPool(seed, cats)
		if err == nil {
			w.buildAdmit(r)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %v or all)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// buildWarm: every structure is estimated once during set-up; the timed
// requests draw structures Zipf-skewed, in fresh spellings, with one request
// in batchEvery a batch of batchSize statements against one catalog and a
// rare re-upload of the advisor catalog.
func (w *workload) buildWarm(r *rand.Rand) {
	w.uploadsCatalog = true
	w.levels = make([]string, len(w.structs))
	for sid, s := range w.structs {
		w.warmup = append(w.warmup, estimateReq(sid, s.Emit(r), s.Catalog, requestLevel, false))
	}
	// Popularity: Zipf over the pool's order, globally and within each
	// catalog (batches stay on one catalog). The order is stratified by
	// table count and catalog (see sqlgen.Draw), so the hot set has the
	// same make-up whatever the seed; the seed draws its shapes.
	rank := make([]int, len(w.structs))
	for i := range rank {
		rank[i] = i
	}
	byCat := map[string][]int{}
	for _, sid := range rank {
		c := w.structs[sid].Catalog
		byCat[c] = append(byCat[c], sid)
	}
	var catNames []string
	for c := range byCat {
		catNames = append(catNames, c)
	}
	sort.Strings(catNames)
	zipf := rand.NewZipf(r, zipfS, 1, uint64(len(rank)-1))
	catZipf := map[string]*rand.Zipf{}
	for _, c := range catNames {
		catZipf[c] = rand.NewZipf(r, zipfS, 1, uint64(len(byCat[c])-1))
	}
	upload := &request{kind: kUpload, body: mustJSON(sqlgen.AdvisorDef())}
	for c := 0; c < clients; c++ {
		ring := make([]*request, ringSize)
		for i := range ring {
			sid := rank[zipf.Uint64()]
			s := w.structs[sid]
			switch {
			case c == 0 && i == ringSize-1:
				ring[i] = upload
			case i%batchEvery == batchEvery-1:
				cat := s.Catalog
				req := &request{kind: kBatch, heavy: true, level: requestLevel}
				stmts := make([]string, batchSize)
				for k := range stmts {
					bsid := byCat[cat][catZipf[cat].Uint64()]
					req.items = append(req.items, bsid)
					stmts[k] = w.structs[bsid].Emit(r)
				}
				req.body = mustJSON(service.EstimateBatchRequest{Catalog: cat, Statements: stmts, Level: requestLevel})
				ring[i] = req
			default:
				ring[i] = estimateReq(sid, s.Emit(r), s.Catalog, requestLevel, false)
			}
		}
		w.rings[c] = ring
	}
}

// buildCold: structures are visited in a fixed cyclic order; set-up fills
// the cache with the first CacheCapacity of them, so every timed request
// misses and evicts. One structure in highEvery runs at level high.
func (w *workload) buildCold(r *rand.Rand) {
	w.levels = make([]string, len(w.structs))
	reqs := make([]*request, len(w.structs))
	// Every highEvery-th structure of each (catalog, table count, cycle)
	// group runs at level high, so the high share has the pool's make-up.
	seen := map[string]int{}
	for sid, s := range w.structs {
		g := fmt.Sprintf("%s/%d/%t", s.Catalog, len(s.Tables), s.Cycles > 0)
		level := "inner2"
		if seen[g]%highEvery == 0 {
			level = "high"
		}
		seen[g]++
		w.levels[sid] = level
		reqs[sid] = estimateReq(sid, s.Emit(r), s.Catalog, level, level == "high")
	}
	order := r.Perm(len(reqs))
	cycle := make([]*request, len(reqs))
	for i, sid := range order {
		cycle[i] = reqs[sid]
	}
	w.warmup = cycle[:sqlgen.CacheCapacity]
	w.cycle = append(append([]*request(nil), cycle[sqlgen.CacheCapacity:]...), cycle[:sqlgen.CacheCapacity]...)
}

// buildAdmit: each timed step is a /v1/optimize under a compile-time budget
// with downgrade, followed by a /v1/estimate of the same statement. Set-up
// estimates every structure once. Each structure has admitSpellings fixed
// spellings: the real optimizer's cardinality model synthesizes histograms
// seeded by alias and column name, so a compile's outcome depends on the
// exact text, and the oracle compiles every spelling sent.
func (w *workload) buildAdmit(r *rand.Rand) {
	w.levels = make([]string, len(w.structs))
	w.spellings = make([][]string, len(w.structs))
	for sid, s := range w.structs {
		w.levels[sid] = admitLevel
		for v := 0; v < admitSpellings; v++ {
			w.spellings[sid] = append(w.spellings[sid], s.Emit(r))
		}
		w.warmup = append(w.warmup, estimateReq(sid, w.spellings[sid][0], s.Catalog, admitLevel, false))
	}
	for c := 0; c < clients; c++ {
		ring := make([]*request, 0, ringSize)
		for len(ring) < ringSize {
			sid := r.Intn(len(w.structs))
			v := r.Intn(admitSpellings)
			s := w.structs[sid]
			sql := w.spellings[sid][v]
			ring = append(ring, &request{
				kind: kOptimize, sid: sid, variant: v, level: admitLevel, heavy: true, sql: sql,
				body: mustJSON(service.OptimizeRequest{
					Catalog: s.Catalog, SQL: sql, Level: admitLevel,
					BudgetMS: budgetMS, OnOverBudget: "downgrade",
				}),
			}, estimateReq(sid, sql, s.Catalog, admitLevel, false))
		}
		w.rings[c] = ring
	}
}
