package experiments

import (
	"fmt"
	"testing"

	"spnet/internal/analysis"
	"spnet/internal/network"
)

// TestPlantedInstancesPinned pins the three-way experiments' default
// instances to what their hand-written literals evaluated to before
// network.NewPlanted replaced them: the mean-value analysis aggregates, at
// full float precision, captured from that tree. Any drift means the shared
// constructor changed a value or an operation order a literal had.
func TestPlantedInstancesPinned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		planted network.Planted
		want    string
	}{
		{"routingcompare", routingScenario(0).Planted,
			"agg {9710.0800000182389 9710.0800000182389 129929.04000019365} sp {1471.6160000036482 1836.4160000000004 22888.368000024686} cl {156.80000000000001 35.200000001215997 1032.4800000046798} scalars 3.0000000000000004 1.5999999999999999"},
		{"trustsweep", trustScenario(0).Planted,
			"agg {11417.600000042879 11417.600000042885 158979.60000048755} sp {906.56000000428821 1088.9600000006399 14338.44000003449} cl {156.80000000000001 35.20000000243202 1039.6800000095043} scalars 3 1.6000000000000001"},
		{"loadvalidation", loadScenario(0).Planted,
			"agg {10003.200000010942 10003.200000010946 145365.84000011641} sp {1923.2000000036483 3228.8000000000011 40173.840000024778} cl {470.40000000000003 35.200000001215997 2760.4800000046807} scalars 9 1"},
	} {
		inst, err := network.NewPlanted(tc.planted)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res := analysis.Evaluate(inst)
		a, s, c := res.AggregateLoad(), res.MeanSuperPeerLoad(), res.MeanClientLoad()
		got := fmt.Sprintf("agg {%.17g %.17g %.17g} sp {%.17g %.17g %.17g} cl {%.17g %.17g %.17g} scalars %.17g %.17g",
			a.InBps, a.OutBps, a.ProcHz, s.InBps, s.OutBps, s.ProcHz, c.InBps, c.OutBps, c.ProcHz, res.ResultsPerQuery, res.EPL)
		if got != tc.want {
			t.Errorf("%s:\n  got  %s\n  want %s", tc.name, got, tc.want)
		}
	}
}
