package sqlgen

import (
	"fmt"

	"cote/internal/service"
)

// CacheCapacity is the estimate-cache capacity the benchmark configures the
// server with; the pool sizes below are stated relative to it.
const CacheCapacity = 512

// Pool sizes, in distinct structures (and so distinct fingerprints).
const (
	// WarmPoolSize is about twice the cache: a Zipf-skewed draw mostly hits,
	// and the tail still misses.
	WarmPoolSize = 2 * CacheCapacity
	// ColdPoolSize is several times the cache: visited in a fixed cycle,
	// an LRU of CacheCapacity never hits. It is large so that pools of
	// different seeds cost alike: a few heavy shapes weigh less.
	ColdPoolSize = 8 * CacheCapacity
	// AdmitPoolSize is small: each structure is compiled many times; six per
	// (table count, catalog) stratum.
	AdmitPoolSize = 288
)

// AdvisorCatalog is the warm-advisor workload's own catalog, uploaded at
// set-up and re-uploaded now and then to bump its epoch.
const AdvisorCatalog = "advisor"

// Catalogs returns the built-in catalogs by registry name, plus the
// advisor catalog registered from AdvisorDef.
func Catalogs() (map[string]Catalog, error) {
	reg := service.NewRegistry()
	if _, err := reg.Register(AdvisorDef()); err != nil {
		return nil, fmt.Errorf("sqlgen: advisor catalog: %w", err)
	}
	out := map[string]Catalog{}
	for _, info := range reg.List() {
		e, err := reg.Get(info.Name)
		if err != nil {
			return nil, err
		}
		out[info.Name] = Catalog{Name: info.Name, Cat: e.Catalog}
	}
	return out, nil
}

func pick(all map[string]Catalog, names ...string) []Catalog {
	out := make([]Catalog, len(names))
	for i, n := range names {
		out[i] = all[n]
	}
	return out
}

// WarmPool draws the warm-advisor structures: 2 to 8 tables over every
// built-in catalog, its partitioned variant, and the advisor catalog.
func WarmPool(seed int64, all map[string]Catalog) ([]*Structure, error) {
	return Draw(seed, Spec{
		Catalogs:    pick(all, "tpch", "tpch_p", "warehouse1", "warehouse1_p", "warehouse2", "warehouse2_p", AdvisorCatalog),
		MinTables:   2,
		MaxTables:   8,
		CycleProb:   0.2,
		FilterProb:  0.4,
		FilterOps:   []string{"=", ">"},
		OrderByProb: 0.3,
	}, WarmPoolSize)
}

// ColdPool draws the cold-estimate structures: foreign-key joins of 6 to 14
// tables over the two warehouse schemas (tpch has only eight tables), some
// closed into cycles. Its filters are ranges (selectivity 1/3), which keep
// every estimated cardinality above one: an equality on a near-unique
// column drops a table to at most one row, the card-one rule then admits
// Cartesian products with it, and a single 14-table statement at level
// high enumerates millions of joins — enough to swing a run's throughput
// by the seed alone.
func ColdPool(seed int64, all map[string]Catalog) ([]*Structure, error) {
	return Draw(seed, Spec{
		Catalogs:    pick(all, "warehouse1", "warehouse1_p", "warehouse2", "warehouse2_p"),
		MinTables:   6,
		MaxTables:   14,
		CycleProb:   0.3,
		FilterProb:  0.3,
		FilterOps:   []string{">"},
		OrderByProb: 0.3,
	}, ColdPoolSize)
}

// AdmitPool draws the admit-optimize structures: 3 to 10 tables on serial
// and partitioned catalogs.
func AdmitPool(seed int64, all map[string]Catalog) ([]*Structure, error) {
	return Draw(seed, Spec{
		Catalogs:    pick(all, "tpch", "tpch_p", "warehouse1", "warehouse1_p", "warehouse2", "warehouse2_p"),
		MinTables:   3,
		MaxTables:   10,
		CycleProb:   0.2,
		FilterProb:  0.4,
		FilterOps:   []string{"=", ">"},
		OrderByProb: 0.3,
	}, AdmitPoolSize)
}

// AdvisorDef is the advisor catalog: a small click-stream snowflake.
func AdvisorDef() service.CatalogDef {
	col := func(name string, ndv float64) service.ColumnDef { return service.ColumnDef{Name: name, NDV: ndv} }
	pk := func(name, c string) []service.IndexDef {
		return []service.IndexDef{{Name: name, Unique: true, Columns: []string{c}}}
	}
	fk := func(c, ref, refCol string) service.ForeignKeyDef {
		return service.ForeignKeyDef{Columns: []string{c}, RefTable: ref, RefColumns: []string{refCol}}
	}
	return service.CatalogDef{Name: AdvisorCatalog, Tables: []service.TableDef{
		{Name: "events", Rows: 50_000_000,
			Columns: []service.ColumnDef{col("ev_id", 50_000_000), col("ev_user_id", 4_000_000), col("ev_session_id", 12_000_000),
				col("ev_page_id", 90_000), col("ev_device_id", 300), col("ev_campaign_id", 2_000), col("ev_ts", 86_400), col("ev_kind", 12)},
			Indexes: []service.IndexDef{{Name: "pk_events", Unique: true, Columns: []string{"ev_id"}},
				{Name: "ix_events_user", Columns: []string{"ev_user_id", "ev_ts"}}},
			ForeignKeys: []service.ForeignKeyDef{fk("ev_user_id", "users", "u_id"), fk("ev_session_id", "sessions", "se_id"),
				fk("ev_page_id", "pages", "pg_id"), fk("ev_device_id", "devices", "dv_id"), fk("ev_campaign_id", "campaigns", "cp_id")}},
		{Name: "sessions", Rows: 12_000_000,
			Columns:     []service.ColumnDef{col("se_id", 12_000_000), col("se_user_id", 4_000_000), col("se_start", 86_400), col("se_len", 600)},
			Indexes:     pk("pk_sessions", "se_id"),
			ForeignKeys: []service.ForeignKeyDef{fk("se_user_id", "users", "u_id")}},
		{Name: "users", Rows: 4_000_000,
			Columns:     []service.ColumnDef{col("u_id", 4_000_000), col("u_region_id", 40), col("u_signup", 3_000), col("u_tier", 4)},
			Indexes:     pk("pk_users", "u_id"),
			ForeignKeys: []service.ForeignKeyDef{fk("u_region_id", "regions", "rg_id")}},
		{Name: "pages", Rows: 90_000,
			Columns:     []service.ColumnDef{col("pg_id", 90_000), col("pg_site_id", 120), col("pg_kind", 20)},
			Indexes:     pk("pk_pages", "pg_id"),
			ForeignKeys: []service.ForeignKeyDef{fk("pg_site_id", "sites", "st_id")}},
		{Name: "sites", Rows: 120,
			Columns:     []service.ColumnDef{col("st_id", 120), col("st_region_id", 40), col("st_owner", 60)},
			Indexes:     pk("pk_sites", "st_id"),
			ForeignKeys: []service.ForeignKeyDef{fk("st_region_id", "regions", "rg_id")}},
		{Name: "devices", Rows: 300,
			Columns: []service.ColumnDef{col("dv_id", 300), col("dv_os", 9), col("dv_class", 4)},
			Indexes: pk("pk_devices", "dv_id")},
		{Name: "campaigns", Rows: 2_000,
			Columns:     []service.ColumnDef{col("cp_id", 2_000), col("cp_region_id", 40), col("cp_budget", 800)},
			Indexes:     pk("pk_campaigns", "cp_id"),
			ForeignKeys: []service.ForeignKeyDef{fk("cp_region_id", "regions", "rg_id")}},
		{Name: "regions", Rows: 40,
			Columns: []service.ColumnDef{col("rg_id", 40), col("rg_name", 40)},
			Indexes: pk("pk_regions", "rg_id")},
	}}
}
