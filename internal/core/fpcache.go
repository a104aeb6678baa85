package core

import (
	"context"
	"sync"
	"time"

	"cote/internal/enum"
	"cote/internal/faultinject"
	"cote/internal/fingerprint"
	"cote/internal/lru"
	"cote/internal/opt"
	"cote/internal/optctx"
	"cote/internal/props"
	"cote/internal/query"
)

// FPKey identifies one memoizable estimation: the structural fingerprint of
// the query plus every knob that changes plan counts at a given level.
// Options.Model is deliberately excluded — the time model is linear in the
// counts and is re-applied per request — as is Options.Exec (cancellation
// bounds a run, it does not change its result).
type FPKey struct {
	// Namespace partitions the cache between statistics generations the
	// fingerprint cannot see. The serving layer stores the catalog epoch
	// here, so a re-uploaded catalog never hits estimates cached against its
	// old statistics; library callers leave it zero.
	Namespace          uint64
	FP                 fingerprint.FP
	Level              opt.Level
	Nodes              int
	OrderPolicy        props.GenerationPolicy
	ListMode           ListMode
	PropagateEveryJoin bool
	Cartesian          enum.CartesianPolicy
}

// KeyFor builds the cache key for estimating a query with fingerprint fp
// under opts, normalizing the knobs the same way EstimatePlans does (nil
// config = serial, LevelLow = LevelHighInner2). The namespace is zero.
func KeyFor(fp fingerprint.FP, opts Options) FPKey {
	nodes := 1
	if opts.Config != nil && opts.Config.Nodes > 1 {
		nodes = opts.Config.Nodes
	}
	return FPKey{
		FP:                 fp,
		Level:              opts.level(),
		Nodes:              nodes,
		OrderPolicy:        opts.OrderPolicy,
		ListMode:           opts.ListMode,
		PropagateEveryJoin: opts.PropagateEveryJoin,
		Cartesian:          opts.CartesianPolicy,
	}
}

// FingerprintCache memoizes plan-count estimates across structurally
// identical queries: a hit skips join enumeration entirely and only
// re-applies the linear time model, turning a repeat estimate into an LRU
// lookup. A singleflight group over misses makes N concurrent requests for
// one key run one enumeration while N-1 wait for its result.
//
// Soundness rests on canonicalization, not just hashing: enumeration counts
// are NOT invariant under table renumbering (first-join-only property
// propagation follows the bitset order, and the floating-point cardinality
// accumulation can tip the card-one Cartesian threshold), so callers
// estimate fingerprint.Canonical(blk) — the deterministic rebuild every
// structurally equal query maps to byte-for-byte. Fingerprint equality
// therefore implies identical counts by construction, and a hit returns
// exactly what a fresh run of the same structure would.
//
// A model can be recalibrated at any moment, so callers price every result
// from its cached counts rather than serve a prediction frozen at insert.
// The cache is safe for concurrent use.
type FingerprintCache struct {
	mu      sync.Mutex
	lru     *lru.Cache[FPKey, *Estimate]
	flights map[FPKey]*flight
	hits    uint64
	misses  uint64
	shared  uint64
}

// flight is one in-progress enumeration concurrent requests wait on.
type flight struct {
	done chan struct{}
	est  *Estimate
	err  error
}

// DefaultFingerprintCacheSize bounds a cache built with capacity <= 0.
const DefaultFingerprintCacheSize = 1024

// NewFingerprintCache returns a cache holding at most capacity estimates
// (DefaultFingerprintCacheSize when capacity <= 0).
func NewFingerprintCache(capacity int) *FingerprintCache {
	if capacity <= 0 {
		capacity = DefaultFingerprintCacheSize
	}
	return &FingerprintCache{
		lru:     lru.New[FPKey, *Estimate](capacity),
		flights: make(map[FPKey]*flight),
	}
}

// Do returns the estimate for key, computing it through fn at most once
// across concurrent callers: a cache hit returns immediately, a request
// finding another's computation in flight waits for it, and everyone else
// leads a computation whose success is cached. hit reports an LRU hit;
// shared reports the result (or error) came from another caller's flight.
// A waiter abandoned by ctx returns ctx's error without disturbing the
// flight. Callers must not mutate the returned Estimate.
func (c *FingerprintCache) Do(ctx context.Context, key FPKey, fn func() (*Estimate, error)) (est *Estimate, hit, shared bool, err error) {
	c.mu.Lock()
	if e, ok := c.lru.Get(key); ok {
		c.hits++
		c.mu.Unlock()
		return e, true, false, nil
	}
	if f, ok := c.flights[key]; ok {
		c.shared++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.est, false, true, f.err
		case <-ctx.Done():
			return nil, false, true, ctx.Err()
		}
	}
	c.misses++
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	// The fill is the flight's one side-effectful step; an injected fill
	// fault fails the leader before the enumeration runs, and — exactly like
	// a real failure — propagates to every waiter sharing the flight while
	// caching nothing.
	if f.err = faultinject.Check(faultinject.PointCacheFill); f.err == nil {
		f.est, f.err = fn()
	}

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.lru.Put(key, f.est)
	}
	c.mu.Unlock()
	close(f.done)
	return f.est, false, false, f.err
}

// EstimatePlans is the memoizing counterpart of core.EstimatePlans. It
// fingerprints blk, looks up (fingerprint, level, knobs), and on a miss
// canonicalizes blk and runs the enumerator over the rebuild. The returned
// hit flag reports whether this call skipped enumeration (an LRU hit or a
// wait on a concurrent caller's flight).
//
// The returned Estimate is a private top-level copy, priced with opts.Model
// and with Elapsed set to this call's wall time (a hit's Elapsed is the
// lookup cost, microseconds, not the original enumeration). Its Blocks
// slice is shared with the cache and must be treated as read-only; the
// block pointers inside reference the canonical rebuild, not blk itself.
func (c *FingerprintCache) EstimatePlans(blk *query.Block, opts Options) (*Estimate, bool, error) {
	start := time.Now()
	// A lookup needs only the hash; the canonical rebuild — several times the
	// cost of hashing — is deferred to the miss path, where the enumeration
	// it feeds dwarfs it anyway.
	key := KeyFor(fingerprint.Of(blk), opts)
	est, hit, shared, err := c.Do(opts.Exec.Context(), key, func() (*Estimate, error) {
		canon, _, err := fingerprint.Canonical(blk)
		if err != nil {
			return nil, err
		}
		runOpts := opts
		runOpts.Model = nil // cache unpriced; every return path re-prices
		return EstimatePlans(canon, runOpts)
	})
	if err != nil {
		return nil, false, err
	}
	return priced(est, opts, time.Since(start)), hit || shared, nil
}

// EstimatePlansCtx is EstimatePlans bounded by a context (misses stop
// cooperatively when ctx expires, waiters stop waiting; hits never block).
func (c *FingerprintCache) EstimatePlansCtx(ctx context.Context, blk *query.Block, opts Options) (*Estimate, bool, error) {
	opts.Exec = optctx.New(ctx)
	return c.EstimatePlans(blk, opts)
}

// priced returns a top-level copy of est with the caller's model applied
// and the given wall time.
func priced(est *Estimate, opts Options, elapsed time.Duration) *Estimate {
	out := *est
	out.Elapsed = elapsed
	out.PredictedTime = 0
	if opts.Model != nil {
		out.PredictedTime = opts.Model.Predict(out.Counts)
	}
	return &out
}

// Stats reports the cache's lifetime hit/miss counters and current
// occupancy.
func (c *FingerprintCache) Stats() (hits, misses uint64, size, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len(), c.lru.Cap()
}

// Shared returns how many requests were served by waiting on another
// request's in-flight enumeration instead of running their own.
func (c *FingerprintCache) Shared() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shared
}
