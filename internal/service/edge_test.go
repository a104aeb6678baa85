package service

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// chainDef is a three-table chain catalog (a.x = b.x AND b.y = c.y) whose
// first table carries the given row count and whose a.x column carries the
// given NDV.
func chainDef(name string, aRows, aNDV float64) CatalogDef {
	return CatalogDef{Name: name, Tables: []TableDef{
		{Name: "a", Rows: aRows, Columns: []ColumnDef{{Name: "x", NDV: aNDV}}},
		{Name: "b", Rows: 100, Columns: []ColumnDef{{Name: "x", NDV: 100}, {Name: "y", NDV: 100}}},
		{Name: "c", Rows: 100, Columns: []ColumnDef{{Name: "y", NDV: 100}}},
	}}
}

const chainSQL = "SELECT a.x FROM a, b, c WHERE a.x = b.x AND b.y = c.y"

// TestRegisterRejectsBadStats pins catalog-upload validation: a row count or
// NDV below one, or one that is not finite, is refused — by Register, and as
// 400 bad_request over HTTP — naming the table (and column), instead of
// being silently raised to one.
func TestRegisterRejectsBadStats(t *testing.T) {
	cases := []struct {
		name      string
		rows, ndv float64
		mention   string
		jsonSafe  bool
	}{
		{"rows negative", -5, 100, `table "a"`, true},
		{"rows zero", 0, 100, `table "a"`, true},
		{"rows NaN", math.NaN(), 100, `table "a"`, false},
		{"rows +Inf", math.Inf(1), 100, `table "a"`, false},
		{"ndv zero", 100, 0, `column "x"`, true},
		{"ndv negative", 100, -3, `column "x"`, true},
	}
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := srv.Registry().Register(chainDef("bad", tc.rows, tc.ndv))
			if err == nil {
				t.Fatal("Register accepted the catalog")
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Fatalf("error %q does not name %s", err, tc.mention)
			}
			if _, err := srv.Registry().Get("bad"); err == nil {
				t.Fatal("rejected catalog was registered")
			}
			if !tc.jsonSafe {
				return // JSON cannot carry NaN or Inf
			}
			resp, body := postJSON(t, ts.URL+"/v1/catalogs", chainDef("bad", tc.rows, tc.ndv))
			if resp.StatusCode != http.StatusBadRequest || body["code"] != CodeBadRequest {
				t.Fatalf("upload: %d %v, want 400 %s", resp.StatusCode, body, CodeBadRequest)
			}
			if msg, _ := body["error"].(string); !strings.Contains(msg, tc.mention) {
				t.Fatalf("upload error %q does not name %s", msg, tc.mention)
			}
		})
	}

	// A valid upload still registers, and the chain enumerates its 8 joins
	// (the card-one Cartesian rule stays off).
	resp, body := postJSON(t, ts.URL+"/v1/catalogs", chainDef("chain", 100, 100))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid upload: %d %v", resp.StatusCode, body)
	}
	r, err := srv.Estimate(context.Background(), EstimateRequest{Catalog: "chain", SQL: chainSQL})
	if err != nil {
		t.Fatal(err)
	}
	if r.Estimate.Joins != 8 {
		t.Fatalf("valid chain enumerated %d joins, want 8", r.Estimate.Joins)
	}
}

// TestEstimateBodiesRejectParallelism pins the request edge: estimates
// always count plans serially, so the strict decoder refuses a
// "parallelism" field in estimate bodies, while optimize bodies, whose
// compile fans out over the parallel DP driver, accept it.
func TestEstimateBodiesRejectParallelism(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const sql = "SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey"
	cases := []struct {
		route string
		body  map[string]any
		want  int
	}{
		{"/v1/estimate", map[string]any{"catalog": "tpch", "sql": sql, "parallelism": 2}, http.StatusBadRequest},
		{"/v1/estimate/batch", map[string]any{"catalog": "tpch", "statements": []string{sql}, "parallelism": 2}, http.StatusBadRequest},
		{"/v1/optimize", map[string]any{"catalog": "tpch", "sql": sql, "parallelism": 2}, http.StatusOK},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.route, tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: %d %v, want %d", tc.route, resp.StatusCode, body, tc.want)
		}
		if tc.want == http.StatusBadRequest && body["code"] != CodeBadRequest {
			t.Fatalf("%s: code %v, want %s", tc.route, body["code"], CodeBadRequest)
		}
	}
}
