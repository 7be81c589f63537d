package core_test

import (
	"fmt"
	"sync"
	"testing"

	"calcite/internal/core"
	"calcite/internal/schema"
	"calcite/internal/types"
)

// newHR builds a framework with the classic emps/depts schema.
func newHR(t testing.TB) *core.Framework {
	t.Helper()
	f := core.New()
	emps := schema.NewMemTable("emps",
		types.Row(
			types.Field{Name: "empid", Type: types.BigInt},
			types.Field{Name: "name", Type: types.Varchar},
			types.Field{Name: "deptno", Type: types.BigInt},
			types.Field{Name: "sal", Type: types.Double},
		),
		[][]any{
			{int64(100), "Bill", int64(10), 10000.0},
			{int64(110), "Theodore", int64(10), 11500.0},
			{int64(150), "Sebastian", int64(10), 7000.0},
			{int64(200), "Eric", int64(20), 8000.0},
			{int64(210), "Jane", int64(30), 9000.0},
		})
	emps.SetStats(schema.Statistics{RowCount: 5, UniqueColumns: [][]int{{0}}})
	depts := schema.NewMemTable("depts",
		types.Row(
			types.Field{Name: "deptno", Type: types.BigInt},
			types.Field{Name: "dname", Type: types.Varchar},
		),
		[][]any{
			{int64(10), "Sales"},
			{int64(20), "Marketing"},
			{int64(30), "Accounts"},
			{int64(40), "Empty"},
		})
	depts.SetStats(schema.Statistics{RowCount: 4, UniqueColumns: [][]int{{0}}})
	f.Catalog.AddTable(emps)
	f.Catalog.AddTable(depts)
	return f
}

func mustRows(t *testing.T, f *core.Framework, sql string, params ...any) [][]any {
	t.Helper()
	res, err := f.Execute(sql, params...)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res.Rows
}

func TestSelectFilterProject(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, "SELECT name, sal FROM emps WHERE sal > 8500")
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %v", len(rows), rows)
	}
}

func TestArithmeticAndAlias(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, "SELECT empid, sal * 2 AS double_sal FROM emps WHERE empid = 100")
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	if v, _ := types.AsFloat(rows[0][1]); v != 20000 {
		t.Fatalf("double_sal = %v, want 20000", rows[0][1])
	}
}

func TestJoinUsingFigure4Shape(t *testing.T) {
	// The Figure 4 query shape: join + filter + group + order.
	f := newHR(t)
	rows := mustRows(t, f, `
		SELECT depts.dname, COUNT(*) AS c
		FROM emps JOIN depts ON emps.deptno = depts.deptno
		WHERE emps.sal > 7500
		GROUP BY depts.dname
		ORDER BY COUNT(*) DESC`)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %v", len(rows), rows)
	}
	if rows[0][0] != "Sales" {
		t.Fatalf("first group = %v, want Sales", rows[0][0])
	}
	if c, _ := types.AsInt(rows[0][1]); c != 2 {
		t.Fatalf("Sales count = %v, want 2", rows[0][1])
	}
}

func TestLeftJoinNullPadding(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, `
		SELECT d.dname, e.name
		FROM depts d LEFT JOIN emps e ON d.deptno = e.deptno
		WHERE d.dname = 'Empty'`)
	if len(rows) != 1 || rows[0][1] != nil {
		t.Fatalf("left join rows: %v", rows)
	}
}

func TestGroupByHaving(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, `
		SELECT deptno, SUM(sal) AS total
		FROM emps GROUP BY deptno HAVING SUM(sal) > 10000
		ORDER BY deptno`)
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	if d, _ := types.AsInt(rows[0][0]); d != 10 {
		t.Fatalf("deptno = %v", rows[0][0])
	}
}

func TestGlobalAggregate(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, "SELECT COUNT(*), MIN(sal), MAX(sal), AVG(sal) FROM emps")
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	if c, _ := types.AsInt(rows[0][0]); c != 5 {
		t.Fatalf("count = %v", rows[0][0])
	}
	if mn, _ := types.AsFloat(rows[0][1]); mn != 7000 {
		t.Fatalf("min = %v", rows[0][1])
	}
	if av, _ := types.AsFloat(rows[0][3]); av != 9100 {
		t.Fatalf("avg = %v", rows[0][3])
	}
}

func TestDistinctAndSetOps(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, "SELECT DISTINCT deptno FROM emps ORDER BY deptno")
	if len(rows) != 3 {
		t.Fatalf("distinct rows: %v", rows)
	}
	rows = mustRows(t, f, `
		SELECT deptno FROM emps
		UNION
		SELECT deptno FROM depts
		ORDER BY 1`)
	if len(rows) != 4 {
		t.Fatalf("union rows: %v", rows)
	}
	rows = mustRows(t, f, "SELECT deptno FROM depts EXCEPT SELECT deptno FROM emps")
	if len(rows) != 1 {
		t.Fatalf("except rows: %v", rows)
	}
	if d, _ := types.AsInt(rows[0][0]); d != 40 {
		t.Fatalf("except row: %v", rows[0])
	}
	rows = mustRows(t, f, "SELECT deptno FROM depts INTERSECT SELECT deptno FROM emps ORDER BY 1")
	if len(rows) != 3 {
		t.Fatalf("intersect rows: %v", rows)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, "SELECT name FROM emps ORDER BY sal DESC LIMIT 2 OFFSET 1")
	if len(rows) != 2 || rows[0][0] != "Bill" || rows[1][0] != "Jane" {
		t.Fatalf("rows: %v", rows)
	}
}

func TestOrderByExpression(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, "SELECT name FROM emps ORDER BY sal - empid DESC LIMIT 1")
	if len(rows) != 1 || rows[0][0] != "Theodore" {
		t.Fatalf("rows: %v", rows)
	}
	// Hidden sort column must not leak.
	res, _ := f.Execute("SELECT name FROM emps ORDER BY sal - empid DESC LIMIT 1")
	if len(res.Columns) != 1 {
		t.Fatalf("columns leaked: %v", res.Columns)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, `
		SELECT t.deptno, t.total FROM (
			SELECT deptno, SUM(sal) AS total FROM emps GROUP BY deptno
		) AS t WHERE t.total > 8500 ORDER BY t.deptno`)
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
}

func TestCaseCastCoalesceFunctions(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, `
		SELECT name,
		       CASE WHEN sal >= 10000 THEN 'high' ELSE 'low' END AS band,
		       CAST(sal AS BIGINT) AS isal,
		       UPPER(name) AS uname
		FROM emps WHERE empid = 110`)
	r := rows[0]
	if r[1] != "high" {
		t.Fatalf("band = %v", r[1])
	}
	if v, ok := r[2].(int64); !ok || v != 11500 {
		t.Fatalf("isal = %v (%T)", r[2], r[2])
	}
	if r[3] != "THEODORE" {
		t.Fatalf("uname = %v", r[3])
	}
}

func TestInBetweenLike(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, "SELECT name FROM emps WHERE deptno IN (20, 30) ORDER BY name")
	if len(rows) != 2 {
		t.Fatalf("in rows: %v", rows)
	}
	rows = mustRows(t, f, "SELECT name FROM emps WHERE sal BETWEEN 8000 AND 10000 ORDER BY name")
	if len(rows) != 3 {
		t.Fatalf("between rows: %v", rows)
	}
	rows = mustRows(t, f, "SELECT name FROM emps WHERE name LIKE 'S%'")
	if len(rows) != 1 || rows[0][0] != "Sebastian" {
		t.Fatalf("like rows: %v", rows)
	}
}

func TestValuesAndSelectWithoutFrom(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, "VALUES (1, 'a'), (2, 'b')")
	if len(rows) != 2 {
		t.Fatalf("values rows: %v", rows)
	}
	rows = mustRows(t, f, "SELECT 1 + 2 AS three")
	if v, _ := types.AsInt(rows[0][0]); v != 3 {
		t.Fatalf("select w/o from: %v", rows)
	}
}

func TestWindowFunction(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, `
		SELECT name, SUM(sal) OVER (PARTITION BY deptno ORDER BY empid) AS running
		FROM emps ORDER BY empid`)
	if len(rows) != 5 {
		t.Fatalf("rows: %v", rows)
	}
	// dept 10 running sums: 10000, 21500, 28500
	want := []float64{10000, 21500, 28500, 8000, 9000}
	for i, w := range want {
		got, _ := types.AsFloat(rows[i][1])
		if got != w {
			t.Errorf("row %d running = %v, want %v (%v)", i, rows[i][1], w, rows)
		}
	}
}

func TestDDLInsertExplain(t *testing.T) {
	f := newHR(t)
	if _, err := f.Execute("CREATE TABLE scratch (id BIGINT, label VARCHAR(10))"); err != nil {
		t.Fatalf("create table: %v", err)
	}
	if _, err := f.Execute("INSERT INTO scratch VALUES (1, 'one'), (2, 'two')"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	rows := mustRows(t, f, "SELECT label FROM scratch WHERE id = 2")
	if len(rows) != 1 || rows[0][0] != "two" {
		t.Fatalf("rows: %v", rows)
	}
	res, err := f.Execute("EXPLAIN SELECT * FROM scratch")
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("explain: %v %v", err, res)
	}
}

func TestViews(t *testing.T) {
	f := newHR(t)
	if _, err := f.Execute("CREATE VIEW highpaid AS SELECT name, sal FROM emps WHERE sal > 9000"); err != nil {
		t.Fatalf("create view: %v", err)
	}
	rows := mustRows(t, f, "SELECT name FROM highpaid ORDER BY name")
	if len(rows) != 2 {
		t.Fatalf("view rows: %v", rows)
	}
}

func TestMaterializedView(t *testing.T) {
	f := newHR(t)
	if _, err := f.Execute("CREATE MATERIALIZED VIEW dept_sal AS SELECT deptno, SUM(sal) AS total, COUNT(*) AS cnt FROM emps GROUP BY deptno"); err != nil {
		t.Fatalf("create mv: %v", err)
	}
	// The exact query should be answered from the view.
	rows := mustRows(t, f, "SELECT deptno, SUM(sal) AS total, COUNT(*) AS cnt FROM emps GROUP BY deptno ORDER BY deptno")
	if len(rows) != 3 {
		t.Fatalf("mv rows: %v", rows)
	}
	if tot, _ := types.AsFloat(rows[0][1]); tot != 28500 {
		t.Fatalf("dept 10 total: %v", rows[0][1])
	}
}

func TestParameters(t *testing.T) {
	f := newHR(t)
	rows := mustRows(t, f, "SELECT name FROM emps WHERE deptno = ? ORDER BY name", int64(10))
	if len(rows) != 3 {
		t.Fatalf("param rows: %v", rows)
	}
}

func TestErrorMessages(t *testing.T) {
	f := newHR(t)
	cases := []string{
		"SELECT nosuch FROM emps",
		"SELECT name FROM nosuchtable",
		"SELECT name FROM emps WHERE sal",               // non-boolean WHERE
		"SELECT deptno, name FROM emps GROUP BY deptno", // ungrouped column
		"SELECT * FROM emps WHERE name > 5 AND TRUE AND 'x' = 1 OR deptno",
	}
	for _, sql := range cases {
		if _, err := f.Execute(sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
}

func TestHepPlannerMode(t *testing.T) {
	f := newHR(t)
	f.Planner = core.HeuristicHep
	rows := mustRows(t, f, "SELECT name FROM emps WHERE sal > 8500 ORDER BY name")
	if len(rows) != 3 {
		t.Fatalf("hep rows: %v", rows)
	}
}

func TestVolcanoHeuristicFixpoint(t *testing.T) {
	f := newHR(t)
	f.FixPoint = 1 // plan.Heuristic
	f.Delta = 0.05
	rows := mustRows(t, f, "SELECT COUNT(*) FROM emps JOIN depts ON emps.deptno = depts.deptno")
	if c, _ := types.AsInt(rows[0][0]); c != 5 {
		t.Fatalf("count: %v", rows)
	}
}

func TestLargerJoin(t *testing.T) {
	f := core.New()
	n := 500
	rowsA := make([][]any, n)
	rowsB := make([][]any, n)
	for i := 0; i < n; i++ {
		rowsA[i] = []any{int64(i), fmt.Sprintf("a%d", i)}
		rowsB[i] = []any{int64(i % 50), fmt.Sprintf("b%d", i)}
	}
	f.Catalog.AddTable(schema.NewMemTable("big_a", types.Row(
		types.Field{Name: "id", Type: types.BigInt},
		types.Field{Name: "va", Type: types.Varchar}), rowsA))
	f.Catalog.AddTable(schema.NewMemTable("big_b", types.Row(
		types.Field{Name: "aid", Type: types.BigInt},
		types.Field{Name: "vb", Type: types.Varchar}), rowsB))
	rows := mustRows(t, f, "SELECT COUNT(*) FROM big_a JOIN big_b ON big_a.id = big_b.aid")
	if c, _ := types.AsInt(rows[0][0]); c != int64(n) {
		t.Fatalf("join count = %v, want %d", rows[0][0], n)
	}
}

// TestConcurrentPlanCacheMisses plans on one framework from several
// goroutines: every statement text is distinct, so each execution misses the
// plan cache, optimizes and records its planner in LastPlanner. Run under
// -race it checks that concurrent planning shares no unsynchronized state.
func TestConcurrentPlanCacheMisses(t *testing.T) {
	f := newHR(t)
	const workers, perWorker = 4, 6
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sql := fmt.Sprintf("SELECT e.name, d.dname FROM emps e JOIN depts d ON e.deptno = d.deptno WHERE e.sal > %d", 1000*w+i)
				if _, err := f.ExecuteOpts(sql, core.ExecOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if f.LastPlanner == nil || f.LastPlanner.Fired == 0 {
		t.Fatalf("LastPlanner not recorded: %+v", f.LastPlanner)
	}
	if misses := f.PlanCache().Counters().Misses; misses < workers*perWorker {
		t.Fatalf("plan-cache misses = %d, want >= %d", misses, workers*perWorker)
	}
}
