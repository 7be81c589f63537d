package main

import (
	"fmt"

	"calcite"
	"calcite/internal/adapter/streamtab"
	"calcite/internal/types"
)

// Every generated value is a pure function of (seed, table salt, row), so
// the same seed always yields the same tables and the point-lookup oracle
// can recompute any row from its key alone.
func mix(seed int64, salt, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + salt*0xd1b54a32d192ed03 + i*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Table salts keep the columns of different tables independent.
const (
	saltDemo = iota + 1
	saltFact
	saltFactGroup
	saltEvents
)

// Amounts are multiples of 1/8 below 50,000, so every SUM the workloads
// compute is exact in any summation order: parallel and serial execution
// must agree bit for bit, and the oracle's ulp tolerance is only a margin.
func amount(h uint64) float64 { return float64(h%400000) / 8 }

var demoMsgs = [...]string{"hello", "world", "lorem", "ipsum", "dolor", "sit", "amet"}

// demoRow is the generator formula of demo row id (1-based): the oracle of
// the point-lookup class.
func demoRow(seed int64, id int64) []any {
	h := mix(seed, saltDemo, uint64(id))
	return []any{id, int64(h % 97), amount(h >> 7), demoMsgs[(h>>40)%uint64(len(demoMsgs))]}
}

func addDemo(conn *calcite.Connection, seed int64, n int) {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = demoRow(seed, int64(i+1))
	}
	conn.AddTable("demo", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "grp", Type: calcite.BigIntType},
		{Name: "val", Type: calcite.DoubleType},
		{Name: "msg", Type: calcite.VarcharType},
	}, rows)
}

// starShape sizes the star schema: a fact table with four dimensions, the
// shape cmd/avaticasrv serves. dimRows[0] sizes d_cust; groups is the
// cardinality of fact.k, the high-cardinality grouping column.
type starShape struct {
	factRows int
	dimRows  [4]int
	groups   int
}

var dimNames = [4]string{"d_cust", "d_prod", "d_geo", "d_time"}

// attrValues is the cardinality of every dimension's attr column.
const attrValues = 17

func addStar(conn *calcite.Connection, seed int64, s starShape) {
	for di, name := range dimNames {
		// attr cycles through its values (as in cmd/avaticasrv), so a
		// predicate on it selects the same share of rows for every seed.
		rows := make([][]any, s.dimRows[di])
		for i := range rows {
			rows[i] = []any{int64(i), fmt.Sprintf("%s-%05d", name, i), int64((i * (di + 3)) % attrValues)}
		}
		conn.AddTable(name, calcite.Columns{
			{Name: "id", Type: calcite.BigIntType},
			{Name: "label", Type: calcite.VarcharType},
			{Name: "attr", Type: calcite.BigIntType},
		}, rows)
	}
	rows := make([][]any, s.factRows)
	for i := range rows {
		h := mix(seed, saltFact, uint64(i))
		g := mix(seed, saltFactGroup, uint64(i))
		rows[i] = []any{
			int64(i),
			int64(h % uint64(s.dimRows[0])),
			int64((h >> 20) % uint64(s.dimRows[1])),
			int64((h >> 30) % uint64(s.dimRows[2])),
			int64((h >> 40) % uint64(s.dimRows[3])),
			int64(g % uint64(s.groups)),
			amount(g >> 20),
		}
	}
	conn.AddTable("fact", calcite.Columns{
		{Name: "id", Type: calcite.BigIntType},
		{Name: "cust_id", Type: calcite.BigIntType},
		{Name: "prod_id", Type: calcite.BigIntType},
		{Name: "geo_id", Type: calcite.BigIntType},
		{Name: "time_id", Type: calcite.BigIntType},
		{Name: "k", Type: calcite.BigIntType},
		{Name: "amount", Type: calcite.DoubleType},
	}, rows)
}

// addEvents registers stream table s.events: n time-ordered events (rowtime
// in epoch millis, 20 ms mean spacing) over eight keys.
func addEvents(conn *calcite.Connection, seed int64, n int) error {
	tb := streamtab.NewTable("events", types.Row(
		types.Field{Name: "rowtime", Type: types.Timestamp},
		types.Field{Name: "k", Type: types.BigInt},
		types.Field{Name: "v", Type: types.BigInt},
	), 0)
	rows := make([][]any, n)
	ts := int64(0)
	for i := range rows {
		h := mix(seed, saltEvents, uint64(i))
		ts += int64(h % 41)
		rows[i] = []any{ts, int64((h >> 8) % 8), int64((h >> 16) % 1000)}
	}
	if err := tb.Append(rows...); err != nil {
		return fmt.Errorf("load s.events: %w", err)
	}
	a := streamtab.New("s")
	a.AddTable(tb)
	conn.RegisterAdapter(a)
	return nil
}
