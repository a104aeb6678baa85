// Allocation-regression guards for the headline paths. The plan arena,
// property interning, scratch-buffer reuse and the flat per-entry Equiv cut
// the allocations of both modes severalfold; these tests pin that
// improvement so an accidental per-plan, per-join or per-entry allocation
// cannot creep back in unnoticed. Ceilings sit ~20% above current
// measurements — loose enough for toolchain drift, tight enough that
// reverting any one optimization trips them.
package cote_test

import (
	"math"
	"testing"

	"cote/internal/core"
	"cote/internal/experiments"
	"cote/internal/opt"
	"cote/internal/query"
	"cote/internal/workload"
)

// Measured 2026-10 (go1.24) as checkAllocs counts, the same in a plain and
// a -race build: optimize 2,354, real2 headline estimate 503-506, star_s Q14
// at LevelHigh 1,455-1,457.
const (
	maxOptimizeAllocs = 2800
	maxEstimateAllocs = 600
	maxStarHighAllocs = 1750
)

// checkAllocs fails t when every one of up to 50 single runs of f makes
// more than ceiling allocations. In a plain build every run makes the same
// count, so the first run decides. Under -race, sync.Pool drops a quarter
// of its puts at random, and a run that finds a pooled MEMO gone rebuilds
// it: only ~1 in 4 runs of the real2 headline estimate keeps all its pools
// (503 allocs against ~1,000), ~2 in 3 of the star query (1,457 against
// ~5,030). The fewest count over the runs is the one a run with its pools
// intact makes, so one ceiling bites in both build modes; 50 runs all
// losing a pool is a one-in-a-million event.
func checkAllocs(t *testing.T, name string, ceiling int, f func()) {
	t.Helper()
	if testing.Short() {
		t.Skip("alloc guard skipped in -short")
	}
	fewest := math.Inf(1)
	for i := 0; i < 50 && fewest > float64(ceiling); i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, f))
	}
	if fewest > float64(ceiling) {
		t.Errorf("%s = %.0f allocs/op, want <= %d", name, fewest, ceiling)
	}
}

func TestOptimizeAllocsReal2Headline(t *testing.T) {
	q := workload.Real2(1).Queries[7] // the 14-table, 3-view query
	checkAllocs(t, "Optimize(real2 headline)", maxOptimizeAllocs, func() {
		if _, err := opt.Optimize(q.Block, opt.Options{Level: experiments.Level}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEstimatePlansAllocsReal2Headline(t *testing.T) {
	checkEstimateAllocs(t, "real2 headline", workload.Real2(1).Queries[7].Block, experiments.Level, maxEstimateAllocs)
}

// TestEstimatePlansAllocsStarHigh guards the query BenchmarkEstimateStarHigh
// prices: 10 tables at 5 predicates per edge, unrestricted bushy, where
// per-entry allocations dominate.
func TestEstimatePlansAllocsStarHigh(t *testing.T) {
	checkEstimateAllocs(t, "star_s Q14 high", workload.Star(1).Queries[14].Block, opt.LevelHigh, maxStarHighAllocs)
}

func checkEstimateAllocs(t *testing.T, name string, blk *query.Block, level opt.Level, ceiling int) {
	t.Helper()
	checkAllocs(t, "EstimatePlans("+name+")", ceiling, func() {
		if _, err := core.EstimatePlans(blk, core.Options{Level: level}); err != nil {
			t.Fatal(err)
		}
	})
}
