package main

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/edb"
	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/units"
)

// The rows of the paper's evaluation (group all): every table, figure,
// case study, sweep and ablation, plus the exhaustive-exploration
// experiment and the fleet-scale Table 4. Each reads opt.quick for shorter
// runs and opt.csv for the figure data files.

func table2(o *jobOut, _ options) error {
	r := experiments.RunTable2(experiments.Table2Config{})
	o.text = r.Format()
	o.metric("table2_worst_case_na", 1e9*float64(r.TotalWorstCase))
	o.metric("table2_active_fraction_pct", 100*r.ActiveFraction)
	return nil
}

func table3(o *jobOut, opt options) error {
	cfg := experiments.DefaultTable3Config()
	if opt.quick {
		cfg.Trials = 15
	}
	r, err := experiments.RunTable3(cfg)
	if err != nil {
		return err
	}
	o.text = r.Format()
	o.metric("table3_dv_scope_mean_mv", 1e3*trace.Summarize(r.DVScope).Mean)
	o.metric("table3_de_pct_mean", trace.Summarize(r.DEPctScope).Mean)
	return nil
}

// printCostJobs is the one job of rows table4 and fig11: Fig. 11 is drawn
// from the Table 4 runs, so a selection of either row or both runs them
// once, and the job writes the files of the rows selected.
func printCostJobs(opt options) []job {
	withTable4, withFig11 := opt.sel["table4"], opt.sel["fig11"]
	return []job{{id: "table4+fig11", fn: func(o *jobOut) error {
		cfg := experiments.DefaultPrintCostConfig()
		if opt.quick {
			cfg.Duration = 15
		}
		r, err := experiments.RunPrintCost(cfg)
		if err != nil {
			return err
		}
		var b strings.Builder
		if withTable4 {
			b.WriteString(r.Format())
			o.file("table4.txt", r.Format())
		}
		for _, m := range r.Modes {
			key := strings.ReplaceAll(strings.ToLower(m.Mode.String()), " ", "_")
			o.metric(fmt.Sprintf("table4_success_%s_pct", key), 100*m.SuccessRate)
			if m.Mode != apps.NoPrint {
				o.metric(fmt.Sprintf("table4_print_energy_%s_pct", key), m.PrintEnergyPct)
			}
		}
		for _, c := range r.Ckpts {
			key := strings.ReplaceAll(strings.ToLower(c.Strategy), "-", "_")
			o.metric(fmt.Sprintf("table4_ckpt_%s_success_pct", key), 100*c.SuccessRate)
			o.metric(fmt.Sprintf("table4_ckpt_%s_checkpoints", key), float64(c.Checkpoints))
			o.metric(fmt.Sprintf("table4_ckpt_%s_copied_words", key), float64(c.WordsCopied))
		}
		if withFig11 {
			fig := experiments.Fig11FromTable4(r)
			b.WriteString(fig.Format())
			o.file("fig11.txt", fig.Format())
			if opt.csv {
				o.file("fig11.csv", fig.CSV())
			}
			for i, name := range fig.Names {
				key := strings.ReplaceAll(strings.ToLower(name), " ", "_")
				o.metric(fmt.Sprintf("fig11_median_%s_pct", key), fig.CDFs[i].Quantile(0.5))
			}
		}
		o.text = b.String()
		o.noDefaultFile = true
		return nil
	}}}
}

// fig7Jobs runs the two panels of Fig. 7, without and with the assert.
func fig7Jobs(opt options) []job {
	var jobs []job
	for _, withAssert := range []bool{false, true} {
		withAssert := withAssert
		name := "fig7-noassert"
		if withAssert {
			name = "fig7-assert"
		}
		jobs = append(jobs, job{id: name, fn: func(o *jobOut) error {
			cfg := experiments.DefaultFig7Config()
			cfg.WithAssert = withAssert
			if opt.quick {
				cfg.Duration = 8
			}
			r, err := experiments.RunFig7(cfg)
			if err != nil {
				return err
			}
			if opt.csv {
				o.file(name+".csv", r.CSV())
			}
			o.text = r.Format()
			o.metric("fig7_early_iters_per_s", r.EarlyRate)
			o.metric("fig7_late_iters_per_s", r.LateRate)
			o.metric("fig7_vcap_end_v", float64(r.VcapAtEnd))
			return nil
		}})
	}
	return jobs
}

// fig9Jobs runs the two panels of Fig. 9, without and with energy guards.
func fig9Jobs(opt options) []job {
	var jobs []job
	for _, guarded := range []bool{false, true} {
		guarded := guarded
		name := "fig9-unguarded"
		if guarded {
			name = "fig9-guarded"
		}
		jobs = append(jobs, job{id: name, fn: func(o *jobOut) error {
			cfg := experiments.DefaultFig9Config()
			cfg.UseGuards = guarded
			if opt.quick {
				cfg.Duration = 12
			}
			r, err := experiments.RunFig9(cfg)
			if err != nil {
				return err
			}
			if opt.csv {
				o.file(name+".csv", r.CSV())
			}
			o.text = r.Format()
			o.metric("fig9_items", float64(r.Count))
			return nil
		}})
	}
	return jobs
}

func fig12(o *jobOut, opt options) error {
	cfg := experiments.DefaultFig12Config()
	if opt.quick {
		cfg.Duration = 8
	}
	r, err := experiments.RunFig12(cfg)
	if err != nil {
		return err
	}
	if opt.csv {
		o.file("fig12.csv", r.CSV())
	}
	o.text = r.Format()
	o.metric("fig12_response_rate_pct", 100*r.ResponseRate)
	o.metric("fig12_replies_per_s", r.RepliesPerSecond)
	return nil
}

func fig2(o *jobOut, _ options) error {
	r, err := experiments.RunFig2(3, 42)
	if err != nil {
		return err
	}
	o.text = r.Format()
	return nil
}

func sweep(o *jobOut, opt options) error {
	per := units.Seconds(8)
	if opt.quick {
		per = 5
	}
	r, err := experiments.RunRangeSweep(per, 12)
	if err != nil {
		return err
	}
	o.text = r.Format()
	return nil
}

func sec531(o *jobOut, _ options) error {
	r, err := experiments.RunSec531(42)
	if err != nil {
		return err
	}
	o.text = r.Format()
	return nil
}

func sec532(o *jobOut, opt options) error {
	dur := units.Seconds(40)
	if opt.quick {
		dur = 20
	}
	r, err := experiments.RunSec532(dur, 7)
	if err != nil {
		return err
	}
	o.text = r.Format()
	o.metric("sec532_hang_items", float64(r.HangCount))
	o.metric("sec532_predicted_hang_items", float64(r.PredictedHang))
	return nil
}

func baselines(o *jobOut, opt options) error {
	dur := units.Seconds(15)
	if opt.quick {
		dur = 10
	}
	r, err := experiments.RunBaselines(dur, 42)
	if err != nil {
		return err
	}
	o.text = r.Format()
	return nil
}

// ablationJobs runs the two ablations: the restore guard band and the
// passive sampler's period.
func ablationJobs(opt options) []job {
	return []job{{id: "ablation-restore-margin", fn: func(o *jobOut) error {
		trials := 20
		if opt.quick {
			trials = 8
		}
		r, err := experiments.RunAblateRestoreMargin(trials, 5)
		if err != nil {
			return err
		}
		o.text = r.Format()
		for _, p := range r.Points {
			if p.Margin == edb.DefaultConfig().RestoreMargin {
				o.metric("ablation_default_margin_dv_mv", 1e3*float64(p.MeanDV))
				o.metric("ablation_default_margin_undershoots", float64(p.Undershoots))
			}
		}
		return nil
	}}, {id: "ablation-sample-period", fn: func(o *jobOut) error {
		r, err := experiments.RunAblateSamplePeriod(5)
		if err != nil {
			return err
		}
		o.text = r.Format()
		if n := len(r.Points); n > 0 {
			o.metric("ablation_fastest_period_lag_mv", 1e3*float64(r.Points[0].TriggerBelow))
			o.metric("ablation_slowest_period_lag_mv", 1e3*float64(r.Points[n-1].TriggerBelow))
		}
		return nil
	}}}
}

func exploreExp(o *jobOut, opt options) error {
	cfg := experiments.DefaultExhaustiveConfig()
	cfg.CheckHashes = true
	if opt.quick {
		cfg.MaxStates = 128
	}
	r, err := experiments.RunExhaustive(cfg)
	if err != nil {
		return err
	}
	if r.Unguarded.Clean() {
		return fmt.Errorf("explore: unguarded build must exhibit WAR violations")
	}
	if !r.Guarded.Clean() {
		return fmt.Errorf("explore: guarded build must verify clean")
	}
	o.text = r.Format()
	o.metric("explore_unguarded_violations", float64(len(r.Unguarded.Violations)))
	o.metric("explore_unguarded_states", float64(r.Unguarded.States))
	o.metric("explore_guarded_states", float64(r.Guarded.States))
	return nil
}

// fleetTable4 is Table 4's success columns across a fleet of opt.fleetTags
// tags (0 for the default).
func fleetTable4(o *jobOut, opt options) error {
	cfg := experiments.DefaultFleetTable4Config()
	if opt.fleetTags > 0 {
		cfg.Tags = opt.fleetTags
	}
	if opt.quick {
		if cfg.Tags > 1000 {
			cfg.Tags = 1000
		}
		cfg.Duration = 2
	}
	r, err := experiments.RunFleetTable4(cfg)
	if err != nil {
		return err
	}
	o.text = r.Format()
	for _, m := range r.Modes {
		key := strings.ReplaceAll(strings.ToLower(m.Mode.String()), " ", "_")
		o.metric(fmt.Sprintf("fleet_success_%s_pct", key), 100*m.SuccessRate)
	}
	if opt.csv {
		o.file("fleet-table4.csv", r.CSV())
	}
	return nil
}
