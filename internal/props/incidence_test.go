package props

import (
	"slices"
	"testing"

	"cote/internal/bitset"
	"cote/internal/catalog"
	"cote/internal/query"
	"cote/internal/workload"
)

// naiveJoinColsBetween is the full predicate scan the incidence index
// replaces: every equality join predicate in JoinPreds order, both ends
// resolved through Block.TableOf.
func naiveJoinColsBetween(blk *query.Block, outer, inner bitset.Set) (outerCols, innerCols []query.ColID) {
	for _, p := range blk.JoinPreds {
		if p.Op != query.Eq {
			continue
		}
		lt, rt := blk.TableOf(p.Left), blk.TableOf(p.Right)
		switch {
		case outer.Contains(lt) && inner.Contains(rt):
			outerCols = append(outerCols, p.Left)
			innerCols = append(innerCols, p.Right)
		case outer.Contains(rt) && inner.Contains(lt):
			outerCols = append(outerCols, p.Right)
			innerCols = append(innerCols, p.Left)
		}
	}
	return outerCols, innerCols
}

// naiveFutureJoinCols is the full-scan form of Equiv.FutureJoinCols.
func naiveFutureJoinCols(blk *query.Block, s bitset.Set) []query.ColID {
	var out []query.ColID
	for _, p := range blk.JoinPreds {
		if p.Op != query.Eq {
			continue
		}
		lt, rt := blk.TableOf(p.Left), blk.TableOf(p.Right)
		switch {
		case s.Contains(lt) && !s.Contains(rt):
			out = append(out, p.Left)
		case s.Contains(rt) && !s.Contains(lt):
			out = append(out, p.Right)
		}
	}
	return out
}

// naiveClasses labels every column of blk with the smallest column id of
// its equivalence class under the equality predicates applied within s. It
// is a deliberately naive union-find: each pass over the predicates merges
// the two ends' labels, until a pass changes nothing.
func naiveClasses(blk *query.Block, s bitset.Set) []query.ColID {
	label := make([]query.ColID, len(blk.Columns))
	for i := range label {
		label[i] = query.ColID(i)
	}
	for changed := true; changed; {
		changed = false
		for _, p := range blk.JoinPreds {
			if p.Op != query.Eq || !s.Contains(blk.TableOf(p.Left)) || !s.Contains(blk.TableOf(p.Right)) {
				continue
			}
			if l, r := label[p.Left], label[p.Right]; l != r {
				label[p.Left], label[p.Right] = min(l, r), min(l, r)
				changed = true
			}
		}
	}
	return label
}

// connectedSubsets lists the non-empty table sets of blk whose induced join
// graph is connected.
func connectedSubsets(blk *query.Block) []bitset.Set {
	var out []bitset.Set
	all := blk.AllTables()
	all.SubsetsProper(func(s bitset.Set) bool {
		if blk.IsConnected(s) {
			out = append(out, s)
		}
		return true
	})
	if blk.IsConnected(all) {
		out = append(out, all)
	}
	return out
}

// differentialBlocks returns the blocks the index is checked on: every
// block (nested ones included) of a few random workloads, and the clique
// workload at one and two predicates per edge.
func differentialBlocks(t *testing.T) []*query.Block {
	t.Helper()
	var blks []*query.Block
	for seed := int64(1); seed <= 3; seed++ {
		for _, q := range workload.Random(seed, 12, 10, 1).Queries {
			blks = append(blks, q.Block.Blocks()...)
		}
	}
	for _, q := range workload.Clique(1).Queries {
		blks = append(blks, q.Block)
	}
	return blks
}

// thetaBlock is a four-table cycle mixing equality and non-equality join
// predicates. The workloads join on equality only, so without it nothing
// would check that the other operators stay out of the classes and the
// future-join columns. Its c1 predicates come in an order that first builds
// two two-column classes and then merges them, which leaves a column two
// parent links from its root before Equiv flattens.
func thetaBlock(t *testing.T) *query.Block {
	t.Helper()
	cb := catalog.NewBuilder("theta")
	for _, name := range []string{"a", "b", "c", "d"} {
		cb.Table(name, 1000).Column("c1", 100).Column("c2", 100)
	}
	qb := query.NewBuilder("theta", cb.Build())
	for _, name := range []string{"a", "b", "c", "d"} {
		qb.AddTable(name, "")
	}
	qb.JoinEq("a", "c1", "b", "c1")
	qb.Join(qb.Col("b", "c2"), qb.Col("c", "c2"), query.Lt)
	qb.JoinEq("c", "c1", "d", "c1")
	qb.JoinEq("b", "c1", "c", "c1")
	qb.Join(qb.Col("d", "c2"), qb.Col("a", "c2"), query.Ne)
	qb.JoinEq("b", "c2", "d", "c2")
	return qb.MustBuild()
}

// TestIncidenceIndexMatchesNaiveScan checks that the indexed
// AppendJoinColsBetween and the per-set Equiv's FutureJoinCols return
// exactly what a scan of every equality predicate returns, element for
// element and in the same order, for every disjoint pair of connected table
// sets in both orientations. The plan counts depend on that order:
// merge-join orders are built from the column lists as returned. It also
// checks the Equiv's classes against naiveClasses over every column pair.
func TestIncidenceIndexMatchesNaiveScan(t *testing.T) {
	maxEq := 0
	for _, blk := range append(differentialBlocks(t), thetaBlock(t)) {
		sc := NewScope(blk)
		maxEq = max(maxEq, len(sc.eq))
		subsets := connectedSubsets(blk)
		var oc, ic []query.ColID
		for _, outer := range subsets {
			eq := blk.EquivWithin(outer)
			want := naiveFutureJoinCols(blk, outer)
			if got := eq.FutureJoinCols(); !slices.Equal(got, want) {
				t.Fatalf("%s: FutureJoinCols(%v) = %v, want %v", blk.Name, outer, got, want)
			}
			checkClasses(t, blk, outer, eq)
			for _, inner := range subsets {
				if outer.Overlaps(inner) {
					continue
				}
				wantO, wantI := naiveJoinColsBetween(blk, outer, inner)
				oc, ic = sc.AppendJoinColsBetween(outer, inner, oc[:0], ic[:0])
				if !slices.Equal(oc, wantO) || !slices.Equal(ic, wantI) {
					t.Fatalf("%s: JoinColsBetween(%v, %v) = %v/%v, want %v/%v",
						blk.Name, outer, inner, oc, ic, wantO, wantI)
				}
			}
		}
	}
	// The 10-table clique at two predicates per edge has 90 equality
	// predicates, so the per-table masks span two words.
	if maxEq <= 64 {
		t.Fatalf("largest block has %d equality predicates; want one over 64 to exercise multi-word masks", maxEq)
	}
}

// checkClasses asserts that eq partitions the columns of blk exactly as
// naiveClasses does for s, and that every representative lies in its
// column's class and is shared by the whole class.
func checkClasses(t *testing.T, blk *query.Block, s bitset.Set, eq *query.Equiv) {
	t.Helper()
	label := naiveClasses(blk, s)
	for a := range label {
		ca := query.ColID(a)
		if r := eq.Rep(ca); label[r] != label[a] {
			t.Fatalf("%s: Rep(%d) = %d within %v, outside its class", blk.Name, a, r, s)
		}
		for b := range label {
			cb := query.ColID(b)
			if got, want := eq.Same(ca, cb), label[a] == label[b]; got != want {
				t.Fatalf("%s: Same(%d, %d) within %v = %t, want %t", blk.Name, a, b, s, got, want)
			} else if want && eq.Rep(ca) != eq.Rep(cb) {
				t.Fatalf("%s: Rep(%d) = %d but Rep(%d) = %d within %v", blk.Name, a, eq.Rep(ca), b, eq.Rep(cb), s)
			}
		}
	}
}

// BenchmarkJoinColsBetween prices the per-join predicate lookup on the
// joins a bushy enumerator without Cartesian products visits: every ordered
// pair of disjoint connected table sets that some predicate links.
func BenchmarkJoinColsBetween(b *testing.B) {
	for _, tc := range []struct {
		name string
		blk  *query.Block
	}{
		{"star_n10_p5", workload.Star(1).Queries[14].Block},
		{"clique_n10_p2", workload.Clique(1).Queries[5].Block},
	} {
		b.Run(tc.name, func(b *testing.B) {
			type join struct{ outer, inner bitset.Set }
			var joins []join
			subsets := connectedSubsets(tc.blk)
			for _, outer := range subsets {
				for _, inner := range subsets {
					if !outer.Overlaps(inner) && tc.blk.Connects(outer, inner) {
						joins = append(joins, join{outer, inner})
					}
				}
			}
			sc := NewScope(tc.blk)
			var oc, ic []query.ColID
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, j := range joins {
					oc, ic = sc.AppendJoinColsBetween(j.outer, j.inner, oc[:0], ic[:0])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(joins)), "ns/join")
			b.ReportMetric(float64(len(joins)), "joins")
		})
	}
}
