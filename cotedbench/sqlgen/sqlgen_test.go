package sqlgen

import (
	"math/rand"
	"testing"

	"cote/internal/fingerprint"
	"cote/internal/service"
	"cote/internal/sqlparser"
)

func catalogs(t *testing.T) map[string]Catalog {
	t.Helper()
	all, err := Catalogs()
	if err != nil {
		t.Fatal(err)
	}
	return all
}

type poolCase struct {
	name string
	draw func(int64, map[string]Catalog) ([]*Structure, error)
	size int
}

var pools = []poolCase{
	{"warm", WarmPool, WarmPoolSize},
	{"cold", ColdPool, ColdPoolSize},
	{"admit", AdmitPool, AdmitPoolSize},
}

// TestPoolsParseAndHaveStatedFingerprints checks that every structure of
// every pool parses, that its spellings differ in text (fresh literals and
// aliases) but share one fingerprint, and that each
// pool holds exactly its stated number of distinct fingerprints per node
// count — the server's estimate-cache identity at one level: a statement on
// unpartitioned tables hashes alike on tpch and tpch_p, but the two are
// cached apart.
func TestPoolsParseAndHaveStatedFingerprints(t *testing.T) {
	all := catalogs(t)
	for _, pc := range pools {
		for _, seed := range []int64{1, 2} {
			structs, err := pc.draw(seed, all)
			if err != nil {
				t.Fatalf("%s seed %d: %v", pc.name, seed, err)
			}
			if len(structs) != pc.size {
				t.Fatalf("%s seed %d: %d structures, want %d", pc.name, seed, len(structs), pc.size)
			}
			r := rand.New(rand.NewSource(seed))
			reg := service.NewRegistry()
			if _, err := reg.Register(AdvisorDef()); err != nil {
				t.Fatal(err)
			}
			type cacheKey struct {
				nodes int
				fp    fingerprint.FP
			}
			fps := map[cacheKey]int{}
			for i, s := range structs {
				var first fingerprint.FP
				var firstSQL string
				for v := 0; v < 3; v++ {
					sql := s.Emit(r)
					blk, err := sqlparser.Parse(sql, all[s.Catalog].Cat)
					if err != nil {
						t.Fatalf("%s seed %d structure %d: %v\n%s", pc.name, seed, i, err, sql)
					}
					if n := blk.NumTables(); n != len(s.Tables) {
						t.Fatalf("%s structure %d: %d tables, want %d", pc.name, i, n, len(s.Tables))
					}
					e, err := reg.Get(s.Catalog)
					if err != nil {
						t.Fatal(err)
					}
					fp := fingerprint.Of(blk)
					key := cacheKey{e.Config.Nodes, fp}
					switch {
					case v == 0:
						first, firstSQL = fp, sql
					case sql == firstSQL:
						t.Fatalf("%s seed %d structure %d: a spelling repeats\n%s", pc.name, seed, i, sql)
					case fp != first:
						t.Fatalf("%s seed %d structure %d: spellings differ in fingerprint\n%s\n%s", pc.name, seed, i, firstSQL, sql)
					}
					if j, ok := fps[key]; ok && j != i {
						t.Errorf("%s seed %d: structures %d and %d share a fingerprint\n%s\n%s",
							pc.name, seed, j, i, structs[j].Key(), s.Key())
					}
					fps[key] = i
				}
			}
			if len(fps) != pc.size {
				t.Errorf("%s seed %d: %d distinct fingerprints, want %d (cache capacity %d)",
					pc.name, seed, len(fps), pc.size, CacheCapacity)
			}
		}
	}
}

// TestSameSeedSameBytes checks that generation is a pure function of the
// seed, down to the rendered bytes.
func TestSameSeedSameBytes(t *testing.T) {
	all := catalogs(t)
	render := func(seed int64) []string {
		var out []string
		for _, pc := range pools {
			structs, err := pc.draw(seed, all)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(seed))
			for _, s := range structs {
				out = append(out, s.Emit(r), s.Emit(r))
			}
		}
		return out
	}
	a, b := render(7), render(7)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("statement %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
	if c := render(8); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatalf("seeds 7 and 8 rendered the same first statements")
	}
}
