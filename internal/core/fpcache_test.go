package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"cote/internal/cost"
	"cote/internal/enum"
	"cote/internal/fingerprint"
	"cote/internal/opt"
	"cote/internal/props"
)

func TestFingerprintCacheHitMatchesMiss(t *testing.T) {
	c := NewFingerprintCache(16)
	blk := starBlock(t, 6, 2, 1, 1, 1)
	cold, hit, err := c.EstimatePlans(blk, Options{Level: opt.LevelHighInner2})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first estimate reported a hit")
	}

	// A fresh build of the same structure must hit and return identical
	// numbers.
	twin := starBlock(t, 6, 2, 1, 1, 1)
	warm, hit, err := c.EstimatePlans(twin, Options{Level: opt.LevelHighInner2})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("structurally identical estimate missed")
	}
	if warm.Counts != cold.Counts || warm.Joins != cold.Joins || warm.Pairs != cold.Pairs {
		t.Fatalf("hit diverged: %+v/%d/%d vs %+v/%d/%d",
			warm.Counts, warm.Joins, warm.Pairs, cold.Counts, cold.Joins, cold.Pairs)
	}
	if warm.PredictedMemoryBytes != cold.PredictedMemoryBytes {
		t.Fatalf("hit memory %d != cold %d", warm.PredictedMemoryBytes, cold.PredictedMemoryBytes)
	}

	hits, misses, size, capacity := c.Stats()
	if hits != 1 || misses != 1 || size != 1 || capacity != 16 {
		t.Fatalf("stats = %d hits, %d misses, %d/%d", hits, misses, size, capacity)
	}
}

// TestFingerprintCacheKnobDistinctness verifies every count-affecting knob
// participates in the key: the same query under each knob variation must
// miss rather than serve another configuration's counts.
func TestFingerprintCacheKnobDistinctness(t *testing.T) {
	c := NewFingerprintCache(64)
	variants := []Options{
		{},
		{Level: opt.LevelMediumLeftDeep},
		{Level: opt.LevelMediumZigZag},
		{Level: opt.LevelHigh},
		{Config: cost.Parallel4},
		{OrderPolicy: props.Lazy},
		{ListMode: CompoundLists},
		{PropagateEveryJoin: true},
		{CartesianPolicy: enum.CartesianNever},
		{CartesianPolicy: enum.CartesianAlways},
	}
	for i, o := range variants {
		blk := starBlock(t, 5, 2, 1, 0, nodesOf(o))
		if _, hit, err := c.EstimatePlans(blk, o); err != nil {
			t.Fatal(err)
		} else if hit {
			t.Fatalf("variant %d hit a previous knob set's entry", i)
		}
	}
	// A differing namespace (the serving layer's catalog epoch) is one more
	// variant: the zero-options structure must miss under it.
	nsBlk := starBlock(t, 5, 2, 1, 0, 1)
	key := KeyFor(fingerprint.Of(nsBlk), Options{})
	key.Namespace = 1
	if _, hit, shared, err := c.Do(context.Background(), key, func() (*Estimate, error) {
		return EstimatePlans(nsBlk, Options{})
	}); err != nil {
		t.Fatal(err)
	} else if hit || shared {
		t.Fatal("namespace variant hit a previous namespace's entry")
	}
	// The zero options normalize to LevelHighInner2 serial: a repeat is the
	// only hit.
	blk := starBlock(t, 5, 2, 1, 0, 1)
	if _, hit, err := c.EstimatePlans(blk, Options{Level: opt.LevelHighInner2}); err != nil {
		t.Fatal(err)
	} else if !hit {
		t.Fatal("normalized default level missed the zero-options entry")
	}
}

func nodesOf(o Options) int {
	if o.Config != nil && o.Config.Nodes > 1 {
		return o.Config.Nodes
	}
	return 1
}

// TestFingerprintCacheModelReapplied verifies hits are re-priced with the
// caller's model rather than serving a stale (or zero) prediction.
func TestFingerprintCacheModelReapplied(t *testing.T) {
	c := NewFingerprintCache(16)
	blk := starBlock(t, 5, 1, 0, 0, 1)
	if _, _, err := c.EstimatePlans(blk, Options{}); err != nil {
		t.Fatal(err)
	}
	m := &TimeModel{Tinst: 1e-8, C: [props.NumJoinMethods]float64{40, 20, 30}, C0: 1000}
	warm, hit, err := c.EstimatePlans(starBlock(t, 5, 1, 0, 0, 1), Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("expected hit")
	}
	if want := m.Predict(warm.Counts); warm.PredictedTime != want {
		t.Fatalf("hit PredictedTime %v, want %v", warm.PredictedTime, want)
	}
}

func TestFingerprintCacheEviction(t *testing.T) {
	c := NewFingerprintCache(1)
	a := starBlock(t, 4, 1, 0, 0, 1)
	b := starBlock(t, 5, 1, 0, 0, 1)
	if _, hit, _ := c.EstimatePlans(a, Options{}); hit {
		t.Fatal("cold a hit")
	}
	if _, hit, _ := c.EstimatePlans(b, Options{}); hit {
		t.Fatal("cold b hit")
	}
	// a was evicted by b under capacity 1.
	if _, hit, _ := c.EstimatePlans(starBlock(t, 4, 1, 0, 0, 1), Options{}); hit {
		t.Fatal("evicted entry still hit")
	}
	if _, hit, _ := c.EstimatePlans(starBlock(t, 4, 1, 0, 0, 1), Options{}); !hit {
		t.Fatal("refilled entry missed")
	}
}

// TestSingleflightShared drives FingerprintCache.Do directly with a blocking
// leader: concurrent callers of the same key must wait for the one
// computation instead of running their own, and a caller abandoned by its
// context must return promptly.
func TestSingleflightShared(t *testing.T) {
	c := NewFingerprintCache(4)
	key := FPKey{Level: 3, Nodes: 1}
	want := &Estimate{Joins: 42}

	release := make(chan struct{})
	started := make(chan struct{})
	var leaderErr error
	var leaderEst *Estimate
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderEst, _, _, leaderErr = c.Do(context.Background(), key, func() (*Estimate, error) {
			close(started)
			<-release
			return want, nil
		})
	}()
	<-started

	// A waiter with a dead context abandons the flight without an estimate.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, shared, err := c.Do(cancelled, key, nil); !shared || err == nil {
		t.Fatalf("cancelled waiter: shared=%v err=%v", shared, err)
	}

	waiters := 3
	results := make(chan *Estimate, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			est, hit, shared, err := c.Do(context.Background(), key, func() (*Estimate, error) {
				t.Error("waiter ran its own computation")
				return nil, nil
			})
			if err != nil || hit || !shared {
				t.Errorf("waiter: hit=%v shared=%v err=%v", hit, shared, err)
			}
			results <- est
		}()
	}
	// Give the waiters a moment to park on the flight, then release it.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if leaderErr != nil || leaderEst != want {
		t.Fatalf("leader: %v %p", leaderErr, leaderEst)
	}
	for i := 0; i < waiters; i++ {
		if got := <-results; got != want {
			t.Fatalf("waiter got %p, want %p", got, want)
		}
	}
	if shared := c.Shared(); shared != uint64(waiters)+1 {
		t.Fatalf("shared count %d, want %d", shared, waiters+1)
	}
	// The flight's result is cached for later callers.
	if _, hit, _, _ := c.Do(context.Background(), key, nil); !hit {
		t.Fatal("post-flight lookup missed")
	}
}
