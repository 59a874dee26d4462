package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// quick returns fast parameters for smoke tests.
func quick() Params { return Params{Scale: 0.04, Trials: 1, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"table1", "table2", "table3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig11", "fig12", "rule4",
		"figA13", "figA14", "figA15", "tableD2", "simcheck", "kredundancy", "reliability", "livereliability", "breakdown",
		"loadvalidation", "routingcompare", "trustsweep", "selfheal", "transferbench"}
	if len(ids) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(ids), len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], id)
		}
	}
	titles := Titles()
	for _, id := range ids {
		if titles[id] == "" {
			t.Errorf("%s has no title", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("bogus", quick()); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestEveryExperimentRuns executes every registered experiment at tiny scale
// and sanity-checks its report structure.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all experiments")
	}
	leakCheck(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, quick())
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if rep.ID != id {
				t.Errorf("report ID = %s", rep.ID)
			}
			if len(rep.Tables) == 0 && len(rep.Series) == 0 {
				t.Error("report is empty")
			}
			text := Format(rep)
			if !strings.Contains(text, id) {
				t.Error("formatted report does not mention the experiment id")
			}
			for _, tbl := range rep.Tables {
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Columns) {
						t.Errorf("row width %d != %d columns", len(row), len(tbl.Columns))
					}
				}
			}
			for _, s := range rep.Series {
				if len(s.X) != len(s.Y) {
					t.Errorf("series %s: %d x vs %d y", s.Label, len(s.X), len(s.Y))
				}
				if s.YErr != nil && len(s.YErr) != len(s.Y) {
					t.Errorf("series %s: mismatched error bars", s.Label)
				}
			}
		})
	}
}

// TestFig4ShapeHolds asserts the headline rule-1 shape at reduced scale:
// aggregate load decreases as cluster size increases.
func TestFig4ShapeHolds(t *testing.T) {
	rep, err := Run("fig4", Params{Scale: 0.1, Trials: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Series {
		if len(s.Y) < 3 {
			t.Fatalf("series %s too short", s.Label)
		}
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last >= first {
			t.Errorf("%s: aggregate load rose from %v to %v across cluster sizes",
				s.Label, first, last)
		}
	}
}

// TestFig5IncomingDipAtFullCluster asserts the Figure 5 exception: incoming
// bandwidth at cluster = network size is below the half-size peak.
func TestFig5IncomingDipAtFullCluster(t *testing.T) {
	rep, err := Run("fig5", Params{Scale: 0.1, Trials: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Series[0] // Strong
	n := len(s.Y)
	if n < 3 {
		t.Fatal("series too short")
	}
	// The last point is cluster = graph size; the one before is cluster =
	// half. The dip: last < second-to-last.
	if s.Y[n-1] >= s.Y[n-2] {
		t.Errorf("no incoming-bandwidth dip at full cluster: %v >= %v", s.Y[n-1], s.Y[n-2])
	}
}

// TestFig9EPLMonotone asserts EPL falls with outdegree on each reach curve.
func TestFig9EPLMonotone(t *testing.T) {
	rep, err := Run("fig9", Params{Scale: 0.15, Trials: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Series {
		if len(s.Y) < 4 {
			continue
		}
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last >= first {
			t.Errorf("%s: EPL did not fall with outdegree (%v -> %v)", s.Label, first, last)
		}
	}
}

// TestFig11Improvement asserts the case-study direction: the redesigned
// topology carries far less aggregate load than today's.
func TestFig11Improvement(t *testing.T) {
	rep, err := Run("fig11", Params{Scale: 0.1, Trials: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) < 2 {
		t.Fatal("missing comparison table")
	}
	today, err := strconv.ParseFloat(rep.Tables[0].Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	redesigned, err := strconv.ParseFloat(rep.Tables[0].Rows[1][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if redesigned >= today*0.6 {
		t.Errorf("redesign saved too little: %v vs %v", redesigned, today)
	}
}
