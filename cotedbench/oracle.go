package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"cote/cotedbench/sqlgen"
	"cote/internal/core"
	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/props"
	"cote/internal/query"
	"cote/internal/service"
	"cote/internal/sqlparser"
)

// The correctness oracle runs after the timed phase. It recomputes every
// answer the server gave through the library, independently of the server's
// caches, and counts each response that disagrees:
//   - every 2xx estimate, hit or miss, must carry the structural fields of
//     core.EstimatePlans on fingerprint.Canonical of its statement at its
//     level (plan counts, joins, pairs, blocks, scan candidates, and the
//     entry-derived memory figures), priced by the installed model;
//   - batch items must be deduplicated exactly when an earlier item of the
//     batch shares their structure (so they match their group);
//   - every optimize must land on the level the model and budget admit,
//     carry the plan counts, cost and rows of a library compile of the same
//     text at that level, and keep the paper's join-count contract (see
//     joinContract);
//   - costs, rows and predictions must be finite.

// mismatch is one disagreement, attributed to a statement.
type mismatch struct {
	sid  int
	what string
	n    int // responses affected
}

type oracle struct {
	w      *workload
	reg    *service.Registry
	model  *core.TimeModel
	budget time.Duration
}

func newOracle(w *workload, model *core.TimeModel) (*oracle, error) {
	reg := service.NewRegistry()
	if _, err := reg.Register(sqlgen.AdvisorDef()); err != nil {
		return nil, err
	}
	return &oracle{w: w, reg: reg, model: model, budget: budgetMS * time.Millisecond}, nil
}

// estimate is the library's answer for (structure, level): any spelling of
// a structure has the same canonical block.
func (o *oracle) estimate(sid int, level opt.Level) (*core.Estimate, error) {
	s := o.w.structs[sid]
	e, err := o.reg.Get(s.Catalog)
	if err != nil {
		return nil, err
	}
	blk, err := sqlparser.Parse(s.Emit(rand.New(rand.NewSource(int64(sid)))), e.Catalog)
	if err != nil {
		return nil, err
	}
	canon, _, err := fingerprint.Canonical(blk)
	if err != nil {
		return nil, err
	}
	return core.EstimatePlans(canon, core.Options{Level: level, Config: e.Config})
}

func expectedVal(est *core.Estimate) obsVal {
	c := est.Counts.ByMethod
	return obsVal{
		counts:      [4]int{c[props.MGJN], c[props.NLJN], c[props.HSJN], est.Counts.Total()},
		joins:       est.Joins,
		pairs:       est.Pairs,
		blocks:      len(est.Blocks),
		visited:     est.CandidatesVisited,
		skipped:     est.CandidatesSkipped,
		memLower:    est.PredictedMemoryBytes,
		peak:        est.MeasuredPeakBytes,
		predictedOK: true,
		dedupOK:     true,
	}
}

// parallel runs fn over n indexes on every CPU and collects the
// mismatches it reports.
func parallel(n int, fn func(i int) []mismatch) []mismatch {
	var mu sync.Mutex
	var out []mismatch
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if m := fn(i); len(m) > 0 {
					mu.Lock()
					out = append(out, m...)
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].sid < out[j].sid })
	return out
}

// checkEstimates verifies every folded estimate response.
func (o *oracle) checkEstimates(st *stats) []mismatch {
	keys := make([]obsKey, 0, len(st.estimates))
	for k := range st.estimates {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sid != keys[j].sid {
			return keys[i].sid < keys[j].sid
		}
		return keys[i].level < keys[j].level
	})
	return parallel(len(keys), func(i int) []mismatch {
		k := keys[i]
		level, err := service.ParseLevel(k.level)
		if err != nil {
			return []mismatch{{k.sid, err.Error(), count(st.estimates[k])}}
		}
		est, err := o.estimate(k.sid, level)
		if err != nil {
			return []mismatch{{k.sid, "library estimate: " + err.Error(), count(st.estimates[k])}}
		}
		want := expectedVal(est)
		var out []mismatch
		for got, n := range st.estimates[k] {
			if got != want {
				out = append(out, mismatch{k.sid, fmt.Sprintf("estimate at %s: got %+v, want %+v", level, got, want), n})
			}
		}
		return out
	})
}

// admitted mirrors the admission rule: from the requested level (lowered
// by any overload rungs), the first level whose predicted compile time fits
// the budget; the greedy level always fits.
func (o *oracle) admitted(sid int, requested opt.Level, rungs int) (opt.Level, string, error) {
	start := requested
	for i := 0; i < rungs && start != opt.LevelLow; i++ {
		start = start.NextLower()
	}
	for l := start; ; l = l.NextLower() {
		if l != opt.LevelLow {
			est, err := o.estimate(sid, l)
			if err != nil {
				return 0, "", err
			}
			if o.model.Predict(est.Counts) > o.budget {
				continue
			}
		}
		if l == start {
			return l, "accept", nil
		}
		return l, "downgrade", nil
	}
}

// optCheck is the per-spelling outcome of the optimize oracle: the
// mismatches and the plan-count error of the admitted level's estimate.
type optCheck struct {
	bad    []mismatch
	relErr float64
	priced bool // relErr is meaningful (a dynamic-programming level)
}

// checkOptimizes verifies every folded optimize response and returns the
// mean relative plan-count error (percent) over the spellings compiled at a
// dynamic-programming level.
func (o *oracle) checkOptimizes(st *stats) ([]mismatch, float64) {
	keys := make([]optKey, 0, len(st.optimizes))
	for k := range st.optimizes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].sid < keys[j].sid || keys[i].sid == keys[j].sid && keys[i].variant < keys[j].variant
	})
	res := make([]optCheck, len(keys))
	bad := parallel(len(keys), func(i int) []mismatch {
		res[i] = o.checkOptimize(keys[i], st.optimizes[keys[i]])
		return res[i].bad
	})
	sum, n := 0.0, 0
	for _, r := range res {
		if r.priced {
			sum += r.relErr
			n++
		}
	}
	if n == 0 {
		return bad, 0
	}
	return bad, 100 * sum / float64(n)
}

func (o *oracle) checkOptimize(k optKey, vals map[optVal]int) optCheck {
	var out optCheck
	add := func(n int, format string, args ...any) {
		out.bad = append(out.bad, mismatch{k.sid, fmt.Sprintf(format, args...), n})
	}
	requested, _ := service.ParseLevel(admitLevel)
	e, err := o.reg.Get(o.w.structs[k.sid].Catalog)
	if err != nil {
		add(count(vals), "catalog: %v", err)
		return out
	}
	blk, err := sqlparser.Parse(o.w.spellings[k.sid][k.variant], e.Catalog)
	if err != nil {
		add(count(vals), "parse: %v", err)
		return out
	}
	compiled := map[opt.Level]*opt.Result{}
	for v, n := range vals {
		level, action, err := o.admitted(k.sid, requested, v.rungs)
		if err != nil {
			add(n, "library estimate: %v", err)
			continue
		}
		if v.level != service.LevelName(level) || v.action != action {
			add(n, "admission: got %s at %s, want %s at %s", v.action, v.level, action, service.LevelName(level))
			continue
		}
		res := compiled[level]
		if res == nil {
			if res, err = opt.Optimize(blk, opt.Options{Level: level, Config: e.Config}); err != nil {
				add(n, "library compile: %v", err)
				continue
			}
			compiled[level] = res
		}
		g := res.TotalCounters().Generated
		want := [4]int{g[props.MGJN], g[props.NLJN], g[props.HSJN], g[props.MGJN] + g[props.NLJN] + g[props.HSJN]}
		if v.counts != want || !near(v.cost, res.Plan.Cost) || !near(v.rows, res.Plan.Card) {
			add(n, "compile at %s: got counts %v cost %g rows %g, want %v cost %g rows %g",
				v.level, v.counts, v.cost, v.rows, want, res.Plan.Cost, res.Plan.Card)
		}
		if !finite(v.cost) || !finite(v.rows) {
			add(n, "non-finite cost %g or rows %g", v.cost, v.rows)
		}
		if level == opt.LevelLow {
			continue // the estimator prices the greedy level as inner2
		}
		if msg := o.joinContract(blk, e.Config, level, res); msg != "" {
			add(n, "%s", msg)
		}
		canon, err := o.estimate(k.sid, level)
		if err == nil && want[3] > 0 {
			out.relErr = math.Abs(float64(canon.Counts.Total()-want[3])) / float64(want[3])
			out.priced = true
		}
	}
	return out
}

// joinContract checks the paper's contract between the estimator and the
// compile of one statement at one level. Both run the same enumerator, so
// both must enumerate every connected join. Beyond those, a Cartesian
// product is admitted only when an input's cardinality is at most one,
// and the estimator decides that with its simple cardinality model while
// the compile uses the real one (the Section 5.2 error source), so the
// totals are compared exactly only when neither admitted a product; then
// serial hash-join plan counts must be exact as well.
func (o *oracle) joinContract(blk *query.Block, cfg *cost.Config, level opt.Level, res *opt.Result) string {
	est, err := core.EstimatePlans(blk, core.Options{Level: level, Config: cfg})
	if err != nil {
		return "library estimate: " + err.Error()
	}
	conn, err := core.CountJoins(blk, core.Options{Level: level, Config: cfg, CartesianPolicy: enum.CartesianNever})
	if err != nil {
		return "library join count: " + err.Error()
	}
	_, pairs := res.TotalJoins()
	switch {
	case est.Pairs < conn.Pairs || pairs < conn.Pairs:
		return fmt.Sprintf("join contract at %s: estimator %d pairs, compile %d, connected pairs %d",
			service.LevelName(level), est.Pairs, pairs, conn.Pairs)
	case est.Pairs != conn.Pairs || pairs != conn.Pairs:
		return "" // a card-one product on either side
	}
	joins, _ := res.TotalJoins()
	if est.Joins != joins {
		return fmt.Sprintf("join contract at %s: estimator %d joins, compile %d", service.LevelName(level), est.Joins, joins)
	}
	if cfg.Nodes <= 1 && est.Counts.ByMethod[props.HSJN] != res.TotalCounters().Generated[props.HSJN] {
		return fmt.Sprintf("serial HSJN at %s: estimator %d, compile %d", service.LevelName(level),
			est.Counts.ByMethod[props.HSJN], res.TotalCounters().Generated[props.HSJN])
	}
	return ""
}

// count totals the responses behind a folded map.
func count[V comparable](m map[V]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// near compares costs and cardinalities to a relative 1e-9: the greedy
// level's plan cost differs in its last digits from compile to compile of
// one statement, which is rounding, not a different plan.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
