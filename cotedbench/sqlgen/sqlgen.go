// Package sqlgen is the benchmark's seeded SQL generator. It draws query
// structures — a connected set of tables joined along foreign keys, optional
// cycle-closing equi-joins, local filters and an ORDER BY — from a catalog,
// and renders each structure as SQL text in as many spellings as asked:
// fresh aliases and literals, both of which the server's structural
// fingerprint ignores.
//
// Everything is a pure function of the seed: the same seed yields the same
// structures and the same bytes.
package sqlgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"cote/internal/catalog"
)

// Col names one column of one table of a structure (T indexes Tables).
type Col struct {
	T   int
	Col string
}

// Join is one equi-join predicate.
type Join struct{ L, R Col }

// Filter is one local predicate against a literal. Op is "=" or ">".
type Filter struct {
	C  Col
	Op string
}

// Structure is one distinct query shape against one registered catalog.
// Its SQL spellings all share one structural fingerprint.
type Structure struct {
	// Catalog is the registry name the statement is sent against.
	Catalog string
	// Tables are the base tables, each at most once.
	Tables  []string
	Joins   []Join
	Filters []Filter
	Select  []Col
	OrderBy []Col
	// Cycles counts the joins beyond a spanning tree.
	Cycles int
}

// Key is the structure's identity: two structures with the same key are the
// same query shape. It is built from the table set, the join edges, the
// filters and the clauses, with table positions replaced by names so that
// generation order does not matter.
func (s *Structure) Key() string {
	name := func(c Col) string { return s.Tables[c.T] + "." + c.Col }
	var parts []string
	for _, j := range s.Joins {
		l, r := name(j.L), name(j.R)
		if r < l {
			l, r = r, l
		}
		parts = append(parts, "j:"+l+"="+r)
	}
	for _, f := range s.Filters {
		parts = append(parts, "f:"+name(f.C)+f.Op)
	}
	for _, c := range s.Select {
		parts = append(parts, "s:"+name(c))
	}
	for _, c := range s.OrderBy {
		parts = append(parts, "o:"+name(c))
	}
	tables := append([]string(nil), s.Tables...)
	sort.Strings(tables)
	sort.Strings(parts)
	return s.Catalog + "|" + strings.Join(tables, ",") + "|" + strings.Join(parts, ";")
}

// Spec bounds the structures a generator draws.
type Spec struct {
	// Catalogs are the (registry name, catalog) pairs to draw from, in
	// equal shares.
	Catalogs []Catalog
	// MinTables and MaxTables bound the table count; every count in
	// between gets an equal share.
	MinTables, MaxTables int
	// CycleProb is the share of structures that get one or two extra
	// equi-joins closing cycles in their join graphs (where the table set
	// offers one).
	CycleProb float64
	// FilterProb is the per-table probability of a local filter, and
	// FilterOps the comparisons it draws from ("=" or ">").
	FilterProb float64
	FilterOps  []string
	// OrderByProb is the probability of an ORDER BY on a join column.
	OrderByProb float64
}

// Catalog is one catalog a statement can be sent against.
type Catalog struct {
	Name string
	Cat  *catalog.Catalog
}

// edge is one foreign-key equi-join between two tables of a catalog.
type edge struct {
	from, to         string
	fromCols, toCols []string
}

// fkEdges lists a catalog's foreign-key edges in a fixed order.
func fkEdges(cat *catalog.Catalog) []edge {
	var out []edge
	for _, name := range cat.TableNames() {
		for _, fk := range cat.MustTable(name).ForeignKeys {
			out = append(out, edge{from: name, to: fk.RefTable, fromCols: fk.Columns, toCols: fk.RefColumns})
		}
	}
	return out
}

// Draw returns n structures with distinct keys, drawn from spec with the
// given seed. The table count, the catalog and whether a cycle is closed
// are stratified — the i-th structure gets them from i, in equal shares —
// so that pools of different seeds have the same make-up and differ only
// in their shapes; what the seed draws is the join-graph walk, the filters
// and the clauses. Draw fails when the spec cannot produce n distinct
// shapes within a generous number of attempts.
func Draw(seed int64, spec Spec, n int) ([]*Structure, error) {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]*Structure, 0, n)
	span := spec.MaxTables - spec.MinTables + 1
	cyclePeriod := 0
	if spec.CycleProb > 0 {
		cyclePeriod = int(1/spec.CycleProb + 0.5)
	}
	for attempts := 0; len(out) < n; attempts++ {
		if attempts > 100*n+1000 {
			return nil, fmt.Errorf("sqlgen: only %d distinct structures of %d after %d attempts", len(out), n, attempts)
		}
		i := len(out)
		c := spec.Catalogs[(i/span)%len(spec.Catalogs)]
		cycle := cyclePeriod > 0 && (i/(span*len(spec.Catalogs)))%cyclePeriod == 0
		s := draw(r, spec, c, spec.MinTables+i%span, cycle)
		if s == nil {
			continue
		}
		if k := s.Key(); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out, nil
}

// draw builds one structure of want tables (at most the catalog's largest
// connected part) by a random walk over the catalog's foreign-key graph.
func draw(r *rand.Rand, spec Spec, c Catalog, want int, cycle bool) *Structure {
	edges := fkEdges(c.Cat)
	names := c.Cat.TableNames()
	want = min(want, largestComponent(names, edges))
	s := &Structure{Catalog: c.Name}
	index := map[string]int{}
	add := func(t string) int {
		index[t] = len(s.Tables)
		s.Tables = append(s.Tables, t)
		return index[t]
	}
	add(names[r.Intn(len(names))])
	used := map[int]bool{}
	for len(s.Tables) < want {
		// Frontier: edges with exactly one end inside the set.
		var frontier []int
		for i, e := range edges {
			_, inF := index[e.from]
			_, inT := index[e.to]
			if inF != inT {
				frontier = append(frontier, i)
			}
		}
		if len(frontier) == 0 {
			return nil
		}
		i := frontier[r.Intn(len(frontier))]
		e := edges[i]
		if _, ok := index[e.from]; !ok {
			add(e.from)
		} else {
			add(e.to)
		}
		used[i] = true
		s.addEdge(e, index)
	}
	if cycle {
		extra := cycleCandidates(edges, used, index)
		for k := 0; k < 1+r.Intn(2) && len(extra) > 0; k++ {
			j := r.Intn(len(extra))
			s.Joins = append(s.Joins, extra[j])
			extra = append(extra[:j], extra[j+1:]...)
			s.Cycles++
		}
	}
	for t, name := range s.Tables {
		if r.Float64() < spec.FilterProb {
			cols := c.Cat.MustTable(name).Columns
			col := cols[1+r.Intn(len(cols)-1)]
			op := spec.FilterOps[r.Intn(len(spec.FilterOps))]
			s.Filters = append(s.Filters, Filter{C: Col{T: t, Col: col.Name}, Op: op})
		}
	}
	s.Select = append(s.Select, Col{T: 0, Col: c.Cat.MustTable(s.Tables[0]).Columns[0].Name})
	if len(s.Tables) > 2 {
		last := len(s.Tables) - 1
		s.Select = append(s.Select, Col{T: last, Col: c.Cat.MustTable(s.Tables[last]).Columns[0].Name})
	}
	if r.Float64() < spec.OrderByProb && len(s.Joins) > 0 {
		s.OrderBy = []Col{s.Joins[r.Intn(len(s.Joins))].L}
	}
	return s
}

// largestComponent is the table count of the largest connected part of a
// catalog's foreign-key graph: the most tables one walk can join.
func largestComponent(names []string, edges []edge) int {
	parent := map[string]string{}
	var find func(string) string
	find = func(t string) string {
		if p, ok := parent[t]; ok && p != t {
			parent[t] = find(p)
			return parent[t]
		}
		return t
	}
	for _, e := range edges {
		parent[find(e.from)] = find(e.to)
	}
	size := map[string]int{}
	best := 0
	for _, t := range names {
		root := find(t)
		size[root]++
		best = max(best, size[root])
	}
	return best
}

// addEdge appends the equalities of one foreign-key edge.
func (s *Structure) addEdge(e edge, index map[string]int) {
	for k := range e.fromCols {
		s.Joins = append(s.Joins, Join{
			L: Col{T: index[e.from], Col: e.fromCols[k]},
			R: Col{T: index[e.to], Col: e.toCols[k]},
		})
	}
}

// cycleCandidates lists single-column equi-joins that close a cycle: an
// unused foreign-key edge inside the set, or two foreign-key columns of
// different tables in the set that reference the same key.
func cycleCandidates(edges []edge, used map[int]bool, index map[string]int) []Join {
	var out []Join
	for i, e := range edges {
		_, inF := index[e.from]
		_, inT := index[e.to]
		if inF && inT && !used[i] && len(e.fromCols) == 1 {
			out = append(out, Join{L: Col{T: index[e.from], Col: e.fromCols[0]}, R: Col{T: index[e.to], Col: e.toCols[0]}})
		}
	}
	for i, a := range edges {
		for _, b := range edges[i+1:] {
			_, inA := index[a.from]
			_, inB := index[b.from]
			// With the referenced table in the set, both columns already
			// equal its key and the join would only restate an implied one.
			_, inRef := index[a.to]
			if !inA || !inB || inRef || a.from == b.from || a.to != b.to ||
				len(a.fromCols) != 1 || len(b.fromCols) != 1 || a.toCols[0] != b.toCols[0] {
				continue
			}
			out = append(out, Join{L: Col{T: index[a.from], Col: a.fromCols[0]}, R: Col{T: index[b.from], Col: b.fromCols[0]}})
		}
	}
	return out
}

// Emit renders one SQL spelling of s with fresh aliases and literals drawn
// from r. Tables and predicates keep the structure's order: the parser
// derives implied predicates in conjunct order, so with two constant
// filters in one equivalence class a reordered WHERE clause can yield a
// different finalized block, and so a different fingerprint.
func (s *Structure) Emit(r *rand.Rand) string {
	aliases := make([]string, len(s.Tables))
	taken := map[string]bool{}
	for i := range aliases {
		for {
			a := fmt.Sprintf("%c%d", "abcdeghkmpqtuvwxyz"[r.Intn(18)], r.Intn(1000))
			if !taken[a] {
				taken[a] = true
				aliases[i] = a
				break
			}
		}
	}
	ref := func(c Col) string { return aliases[c.T] + "." + c.Col }

	var b strings.Builder
	b.WriteString("SELECT ")
	for i, c := range s.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(ref(c))
	}
	b.WriteString(" FROM ")
	for i, t := range s.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t + " " + aliases[i])
	}
	var conds []string
	for _, j := range s.Joins {
		conds = append(conds, ref(j.L)+" = "+ref(j.R))
	}
	for _, f := range s.Filters {
		conds = append(conds, fmt.Sprintf("%s %s %d", ref(f.C), f.Op, 1+r.Intn(100000)))
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, c := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ref(c))
		}
	}
	return b.String()
}
