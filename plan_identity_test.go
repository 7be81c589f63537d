// Plan-identity golden test: about 200 seeded ad-hoc star-schema statements
// are optimized twice — once cold, once after every statement has executed
// and fed its observed cardinalities back — and each optimized plan's
// rel.Explain text is compared with testdata/plan_identity.golden. Planner
// performance work (digest memoization, metadata caching) must leave every
// plan byte-identical; regenerate the file with -update only for a change
// that is meant to alter plans.
package calcite_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"calcite"
	"calcite/internal/rel"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

const (
	adhocSeed     = 20180610
	adhocPerShape = 5
	adhocAttrVals = 17
)

var (
	adhocDims    = [4]string{"d_cust", "d_prod", "d_geo", "d_time"}
	adhocAliases = [4]string{"c", "p", "g", "t"}
	adhocFKs     = [4]string{"cust_id", "prod_id", "geo_id", "time_id"}
	// adhocJoinMasks are the dimension subsets a statement joins: every
	// subset of three or four of the four dimensions.
	adhocJoinMasks = []int{7, 11, 13, 14, 15}
)

// adhocStarConn builds the ad-hoc star schema: a 1,500-row fact table with
// four foreign keys into 50-row dimensions (id, label, attr). Values are
// pure functions of the row index, so every run plans and executes alike.
func adhocStarConn() *calcite.Connection {
	conn := calcite.Open()
	conn.SetParallelism(1)
	for di, name := range adhocDims {
		rows := make([][]any, 50)
		for i := range rows {
			rows[i] = []any{int64(i), fmt.Sprintf("%s-%05d", name, i), int64((i * (di + 3)) % adhocAttrVals)}
		}
		conn.AddTable(name, calcite.Columns{
			{Name: "id", Type: calcite.BigIntType},
			{Name: "label", Type: calcite.VarcharType},
			{Name: "attr", Type: calcite.BigIntType},
		}, rows)
	}
	fact := make([][]any, 1500)
	for i := range fact {
		h := uint64(i)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
		h ^= h >> 29
		fact[i] = []any{
			int64(i),
			int64(h % 50),
			int64((h >> 20) % 50),
			int64((h >> 30) % 50),
			int64((h >> 40) % 50),
			float64((h>>8)%320000) / 8,
		}
	}
	conn.AddTable("fact", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "cust_id", Type: calcite.BigIntType},
		{Name: "prod_id", Type: calcite.BigIntType},
		{Name: "geo_id", Type: calcite.BigIntType},
		{Name: "time_id", Type: calcite.BigIntType},
		{Name: "amount", Type: calcite.DoubleType},
	}, fact)
	return conn
}

// adhocStarStatements generates perShape statements for each of the 40
// shapes (5 join subsets × 4 groupings × ORDER BY on/off); the seed draws
// grouped columns, extra aggregates, predicates and literals.
func adhocStarStatements(seed int64, perShape int) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for _, mask := range adhocJoinMasks {
		var joined []int
		from := "FROM fact f"
		for d := 0; d < 4; d++ {
			if mask&(1<<d) != 0 {
				joined = append(joined, d)
				from += fmt.Sprintf(" JOIN %s %s ON f.%s = %s.id", adhocDims[d], adhocAliases[d], adhocFKs[d], adhocAliases[d])
			}
		}
		pick := func() string { return adhocAliases[joined[rng.Intn(len(joined))]] }
		for grouping := 0; grouping < 4; grouping++ {
			for _, ordered := range []bool{false, true} {
				for v := 0; v < perShape; v++ {
					var group []string
					switch grouping {
					case 1:
						group = []string{pick() + ".label"}
					case 2:
						group = []string{pick() + ".attr"}
					case 3:
						group = []string{pick() + ".attr", "f.time_id"}
					}
					aggs := []string{"COUNT(*) AS n", "SUM(f.amount) AS total"}
					if rng.Intn(2) == 0 {
						aggs = append(aggs, "MIN(f.id) AS lo")
					}
					if rng.Intn(2) == 0 {
						aggs = append(aggs, fmt.Sprintf("MAX(%s.attr) AS hi", pick()))
					}
					where := []string{fmt.Sprintf("f.amount >= %d.%d", rng.Intn(40000), rng.Intn(8)*125)}
					if rng.Intn(2) == 0 {
						where = append(where, fmt.Sprintf("%s.attr < %d", pick(), 2+rng.Intn(adhocAttrVals-2)))
					}
					if rng.Intn(3) == 0 {
						where = append(where, fmt.Sprintf("f.geo_id <> %d", rng.Intn(50)))
					}
					sql := "SELECT " + strings.Join(append(append([]string(nil), group...), aggs...), ", ") +
						" " + from + " WHERE " + strings.Join(where, " AND ")
					if len(group) > 0 {
						sql += " GROUP BY " + strings.Join(group, ", ")
						if ordered {
							sql += " ORDER BY " + strings.Join(group, ", ")
						}
					} else if ordered {
						sql += " ORDER BY total"
					}
					out = append(out, sql)
				}
			}
		}
	}
	return out
}

func TestPlanIdentityGolden(t *testing.T) {
	conn := adhocStarConn()
	stmts := adhocStarStatements(adhocSeed, adhocPerShape)
	var b strings.Builder
	explainAll := func(pass string) {
		for i, sql := range stmts {
			_, optimized, err := conn.Plan(sql)
			if err != nil {
				t.Fatalf("%s #%d: %v\n%s", pass, i, err, sql)
			}
			fmt.Fprintf(&b, "=== %s #%d\n%s\n%s", pass, i, sql, rel.Explain(optimized))
		}
	}
	explainAll("cold")
	// Executing every statement harvests its operators' actual row counts
	// into the feedback store, so the second pass plans with corrections.
	for i, sql := range stmts {
		if _, err := conn.Query(sql); err != nil {
			t.Fatalf("execute #%d: %v\n%s", i, err, sql)
		}
	}
	if _, ops := conn.Framework.Feedback().Size(); ops == 0 {
		t.Fatal("feedback store is empty after executing the statements")
	}
	explainAll("feedback")

	path := filepath.Join("testdata", "plan_identity.golden")
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("plans differ from %s at line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("plans differ from %s in length: got %d lines, want %d", path, len(gotLines), len(wantLines))
}
