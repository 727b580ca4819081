package experiments

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/fleet"
)

// TestFleetEDBPrintfIsNoPrint runs the EDB-printf and the no-print builds
// of the activity app on a 200-tag fleet with Table 4's configuration and
// requires the same outcome on every tag. RunFleetTable4 prints the
// EDB-printf row from the no-print run on the strength of this: if EDB
// printf ever costs something in the fleet, this fails instead of the row
// being wrong.
func TestFleetEDBPrintfIsNoPrint(t *testing.T) {
	cfg := DefaultFleetTable4Config()
	cfg.Tags, cfg.Duration = 200, 2
	run := func(mode apps.PrintMode) ([]fleet.TagResult, []apps.ActivityStats) {
		res, tags, err := runFleet(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		stats := make([]apps.ActivityStats, len(tags))
		for i, app := range tags {
			stats[i] = app.Stats(res.Devices[i])
		}
		return res.Tags, stats
	}
	no, noStats := run(apps.NoPrint)
	edb, edbStats := run(apps.EDBPrint)
	if !reflect.DeepEqual(edb, no) {
		t.Fatal("EDB printf changes a tag's run result")
	}
	if !reflect.DeepEqual(edbStats, noStats) {
		t.Fatal("EDB printf changes a tag's iteration counts")
	}
	if noStats[0].Attempted == 0 {
		t.Fatal("the fleet attempted no iterations")
	}
}
