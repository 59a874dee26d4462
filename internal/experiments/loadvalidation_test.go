package experiments

import (
	"fmt"
	"testing"

	"spnet/internal/metrics"
	"spnet/internal/topology"
)

// TestLoadValidationE2E boots the full three-way validation on a small
// deterministic configuration: live TCP super-peers with scraped telemetry
// against the analytical model and the discrete-event simulator. The live
// measured query+response bandwidth must agree with the analytical
// prediction within a tolerance dominated by Poisson sampling noise. Three
// clusters are the default; four are the smallest fleet where a clique and a
// ring differ, so agreement there shows the live fleet is wired from the
// model's own overlay. The two fleets are independent and meter their own
// bytes over their own elapsed time, so they run side by side.
func TestLoadValidationE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live network for several wall seconds")
	}
	for _, clusters := range []int{3, 4} {
		t.Run(fmt.Sprintf("clusters=%d", clusters), func(t *testing.T) {
			t.Parallel()
			s := loadScenario(42)
			s.Planted.Graph = topology.NewClique(clusters)
			s.SimDuration = 3000
			s.Live.Duration, s.Live.TimeScale = 600, 150
			s.Logf = t.Logf
			res, err := runLoadValidation(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != clusters {
				t.Fatalf("got %d rows, want %d", len(res.Rows), clusters)
			}
			for v, row := range res.Rows {
				if want := fmt.Sprintf("sp-%d-0", v); row.ID != want {
					t.Errorf("row %d id %q, want %q", v, row.ID, want)
				}
				for _, d := range []metrics.Dir{metrics.DirIn, metrics.DirOut} {
					model := queryRespBps(row.Model, d)
					if model <= 0 {
						t.Fatalf("%s dir %v: analytical prediction is %v", row.ID, d, model)
					}
					if live := queryRespBps(row.Live, d); live <= 0 {
						t.Errorf("%s dir %v: no live bytes measured", row.ID, d)
					}
					if e := relErr(queryRespBps(row.Sim, d), model); e > 0.10 {
						t.Errorf("%s dir %v: simulator off by %.1f%% (> 10%%)", row.ID, d, 100*e)
					}
					// Query copies are what an overlay mismatch changes most
					// (a 4-ring floods 4 copies where the 4-clique floods 9)
					// while responses, most of the bytes, barely move: hold
					// the query class to the tolerance on its own.
					liveQ, modelQ := row.Live.Get(metrics.ClassQuery, d), row.Model.Get(metrics.ClassQuery, d)
					if e := relErr(liveQ, modelQ); e > 0.30 {
						t.Errorf("%s dir %v: live query bandwidth %.4g vs model %.4g, off by %.1f%% (> 30%%)",
							row.ID, d, liveQ, modelQ, 100*e)
					}
				}
			}
			if e := res.MaxRelErrLiveVsModel(); e > 0.30 {
				t.Errorf("live vs model worst query+response error %.1f%% exceeds 30%%", 100*e)
			} else {
				t.Logf("live vs model worst query+response error: %.1f%%", 100*e)
			}
			if res.Report == nil || len(res.Report.Tables) != 1 {
				t.Fatalf("report missing comparison table")
			}
			if got, want := len(res.Report.Tables[0].Rows), clusters*6; got != want {
				t.Errorf("table has %d rows, want %d", got, want)
			}
		})
	}
}
