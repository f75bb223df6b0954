package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/complexity"
)

// findRow returns the table row with the given id, elector and currency.
func findRow(t *testing.T, id, elector string, cur currency) claim {
	t.Helper()
	for _, c := range claims() {
		if c.id == id && c.elector == elector && c.currency.name == cur.name {
			return c
		}
	}
	t.Fatalf("no row %s %s %s", id, elector, cur.name)
	return claim{}
}

// TestClaimsQuick runs the whole table at -quick: every row must hold,
// and every row outside the report-only experiments must carry a check.
func TestClaimsQuick(t *testing.T) {
	out := filepath.Join(t.TempDir(), "claims.json")
	if err := runClaims(config{trials: 100, seed: 1, quick: true}, "all", out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report reportJSON
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != reportSchema || !report.Pass || len(report.Rows) != len(claims()) {
		t.Fatalf("report: schema %q, pass %v, %d rows; want %q, true, %d",
			report.Schema, report.Pass, len(report.Rows), reportSchema, len(claims()))
	}
	for _, c := range claims() {
		want := c.id == "E10" || c.id == "E11" || (c.id == "E12" && c.currency.name == dsmRMR.name)
		if (c.shape.kind == reportOnly) != want {
			t.Errorf("%s: shape %q, want report-only = %v", c.name(), c.describe(), want)
		}
	}
}

// TestClaimMutationsViolate: each row, checked against a claim the data
// refutes, must report a violation.
func TestClaimMutationsViolate(t *testing.T) {
	cases := []struct {
		name  string
		full  bool // needs the full-size sweep
		row   claim
		shape shape
	}{
		// At full size AGTV's steps fit O(log n) with no other class in
		// the tie band.
		{"agtv steps under an O(log log n) ceiling", true,
			findRow(t, "E12", "tas-agtv", steps), ceilingOf(complexity.LogLog)},
		{"the naive chain under the attack, O(log n) ceiling", false,
			findRow(t, "E5", "logstar", steps), ceilingOf(complexity.Log)},
		{"ratrace-se steps under the lockstep adversary, O(1) ceiling", false,
			findRow(t, "E4", "ratrace-se", steps), ceilingOf(complexity.O1)},
		{"original RatRace registers as linear space", false,
			findRow(t, "E4", "ratrace-original", registers), shape{kind: linear}},
		{"Figure 1 elects at most 1", false,
			findRow(t, "E1", "fig1", elected), within(bound{0, "<=", "1", func(int) float64 { return 1 }})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.full && testing.Short() {
				t.Skip("full-size sweep")
			}
			tc.row.shape = tc.shape
			res, err := newRunner(config{trials: 100, seed: 1, quick: !tc.full}).evaluate(tc.row)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.fails) == 0 {
				tbl := res.table()
				t.Errorf("no violation reported:\n%s", tbl.String())
			}
		})
	}
}
