package query

import "cote/internal/bitset"

// Equiv captures the column equivalence classes induced by the equality join
// predicates applied within one table set. The paper notes that joins change
// property equivalence (an order on R.a and one on S.a become equivalent
// once R.a = S.a is applied), so equivalence must be recomputed per
// enumerated table set; Equiv is the per-set answer, together with the
// set's future-join columns. rep[c] is the representative of column c's
// class, so Same and Rep are plain loads. An Equiv is immutable once built:
// one per MEMO entry is shared by all workers of the parallel DP round.
type Equiv struct {
	rep, future []ColID
}

// EquivWithin returns the equivalence classes induced by equality join
// predicates whose both sides lie inside s, together with the future-join
// columns of s. Both come from one pass over the predicates, into one
// allocation. The Block must be finalized.
func (b *Block) EquivWithin(s bitset.Set) *Equiv {
	n := len(b.Columns)
	uf := newUnionFind(n, len(b.JoinPreds))
	future := []ColID(uf[n:])
	for i := range b.JoinPreds {
		p := &b.JoinPreds[i]
		if p.Op != Eq {
			continue
		}
		t := b.predTabs[i]
		switch inL, inR := s.Contains(t[0]), s.Contains(t[1]); {
		case inL && inR:
			uf.union(int(p.Left), int(p.Right))
		case inL:
			future = append(future, p.Left)
		case inR:
			future = append(future, p.Right)
		}
	}
	// Point every column directly at the root its unions chose.
	for i := range uf {
		uf[i] = ColID(uf.find(i))
	}
	return &Equiv{rep: uf[:n:n], future: future}
}

// Same reports whether columns a and b are in the same equivalence class.
func (e *Equiv) Same(a, b ColID) bool { return e.rep[a] == e.rep[b] }

// Rep returns the canonical representative of a's class. Representatives
// are stable for a given Equiv and suitable as map keys.
func (e *Equiv) Rep(a ColID) ColID { return e.rep[a] }

// FutureJoinCols returns the columns inside the set that participate in
// equality join predicates crossing its boundary — the columns a future
// merge join or co-located parallel join could exploit — in JoinPreds
// order. Callers must not mutate the slice.
func (e *Equiv) FutureJoinCols() []ColID { return e.future }
