package experiments

import (
	"strconv"
	"testing"

	"spnet/internal/sim"
)

// TestLiveReliabilitySchedulesDeterministic pins the determinism contract:
// everything scheduled — fault times and per-client query arrivals — is
// bit-identical for a fixed seed at a fixed time scale, which is what makes
// a live run replayable even though measured counts are timing-dependent.
func TestLiveReliabilitySchedulesDeterministic(t *testing.T) {
	a := liveArrivals(42, 3, 1, 2, 0.5, 300)
	b := liveArrivals(42, 3, 1, 2, 0.5, 300)
	if len(a) == 0 {
		t.Fatal("no arrivals drawn")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if c := liveArrivals(43, 3, 1, 2, 0.5, 300); len(c) == len(a) && c[0] == a[0] {
		t.Error("different seed produced the same arrival stream")
	}
	// Distinct client slots draw independent streams from the same seed.
	if d := liveArrivals(42, 3, 0, 1, 0.5, 300); len(d) == len(a) && d[0] == a[0] {
		t.Error("distinct client slots share an arrival stream")
	}

	s1 := sim.ExponentialSchedule(7, 2, 2, 30, 60)
	s2 := sim.ExponentialSchedule(7, 2, 2, 30, 60)
	if len(s1) != len(s2) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("schedule event %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

// TestLiveReliabilityEndToEnd boots real (tiny) live networks, replays a
// failure regime through the time-scale bridge, and checks the run is sound:
// queries were issued, the report is shaped like the simulated table's live
// counterpart, rows streamed to the sink, and — the leak check — every
// goroutine the harness spawned is gone afterwards.
func TestLiveReliabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live network run")
	}
	leakCheck(t)
	var streamed [][]string
	p := Params{Scale: 0.1, Seed: 11} // a 60-virtual-second window
	p.RowSink = func(stage string, columns, row []string) {
		if stage == "" || len(columns) != len(row) {
			t.Errorf("sink got stage %q, %d columns, %d cells", stage, len(columns), len(row))
		}
		streamed = append(streamed, append([]string(nil), row...))
	}
	rep, err := runLiveReliability(p, []failureRegime{{"tiny (MTBF 30 s, recovery 8 s)", 30, 8}}, []int{2})
	if err != nil {
		t.Fatalf("runLiveReliability: %v", err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 1 {
		t.Fatalf("report shape: %+v", rep.Tables)
	}
	tbl := rep.Tables[0]
	row := tbl.Rows[0]
	if len(row) != len(tbl.Columns) {
		t.Fatalf("row has %d cells, want %d", len(row), len(tbl.Columns))
	}
	for i, want := range map[int]string{3: "Failures (live)", 4: "Queries (live)", 5: "Lost (sim)", 6: "Lost (live)"} {
		if tbl.Columns[i] != want {
			t.Errorf("column %d is %q, want %q", i, tbl.Columns[i], want)
		}
	}
	if kills, err := strconv.Atoi(row[3]); err != nil || kills == 0 {
		t.Errorf("live kills = %q, want > 0 at MTBF 30 s", row[3])
	}
	if issued, err := strconv.Atoi(row[4]); err != nil || issued == 0 {
		t.Fatalf("queries issued = %q, want > 0", row[4])
	}
	if len(streamed) != 1 {
		t.Fatalf("RowSink saw %d rows, want 1", len(streamed))
	}
}
