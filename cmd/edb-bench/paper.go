package main

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/trace"
	"repro/internal/units"
)

// paperJobs returns the jobs of the paper's evaluation that want selects,
// in print order: every table, figure, case study, sweep and ablation, plus
// the exhaustive-exploration experiment and the fleet-scale Table 4. quick
// shortens the runs, csv adds the figure data files, and fleetTags (0 for
// the default) sizes the fleet.
func paperJobs(want func(id string) bool, quick, csv bool, fleetTags int) []job {
	var jobs []job
	add := func(id string, fn func(*jobOut) error) {
		jobs = append(jobs, job{id: id, fn: fn})
	}

	if want("table2") {
		add("table2", func(o *jobOut) error {
			r := experiments.RunTable2(experiments.Table2Config{})
			o.text = r.Format()
			o.metric("table2_worst_case_na", 1e9*float64(r.TotalWorstCase))
			o.metric("table2_active_fraction_pct", 100*r.ActiveFraction)
			return nil
		})
	}
	if want("table3") {
		add("table3", func(o *jobOut) error {
			cfg := experiments.DefaultTable3Config()
			if quick {
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
		})
	}
	if want("table4") || want("fig11") {
		// Fig 11 is derived from the Table 4 runs, so the two share a job.
		add("table4+fig11", func(o *jobOut) error {
			cfg := experiments.DefaultPrintCostConfig()
			if quick {
				cfg.Duration = 15
			}
			r, err := experiments.RunPrintCost(cfg)
			if err != nil {
				return err
			}
			var b strings.Builder
			if want("table4") {
				b.WriteString(r.Format())
				o.file("table4.txt", r.Format())
			}
			for _, m := range r.Modes {
				key := strings.ReplaceAll(strings.ToLower(m.Mode.String()), " ", "_")
				o.metric(fmt.Sprintf("table4_success_%s_pct", key), 100*m.SuccessRate)
			}
			for _, c := range r.Ckpts {
				key := strings.ReplaceAll(strings.ToLower(c.Strategy), "-", "_")
				o.metric(fmt.Sprintf("table4_ckpt_%s_success_pct", key), 100*c.SuccessRate)
				o.metric(fmt.Sprintf("table4_ckpt_%s_checkpoints", key), float64(c.Checkpoints))
				o.metric(fmt.Sprintf("table4_ckpt_%s_copied_words", key), float64(c.WordsCopied))
			}
			if want("fig11") {
				fig := experiments.Fig11FromTable4(r)
				b.WriteString(fig.Format())
				o.file("fig11.txt", fig.Format())
				if csv {
					o.file("fig11.csv", fig.CSV())
				}
			}
			o.text = b.String()
			o.noDefaultFile = true
			return nil
		})
	}
	if want("fig7") {
		for _, withAssert := range []bool{false, true} {
			withAssert := withAssert
			name := "fig7-noassert"
			if withAssert {
				name = "fig7-assert"
			}
			add(name, func(o *jobOut) error {
				cfg := experiments.DefaultFig7Config()
				cfg.WithAssert = withAssert
				if quick {
					cfg.Duration = 8
				}
				r, err := experiments.RunFig7(cfg)
				if err != nil {
					return err
				}
				if csv {
					o.file(name+".csv", r.CSV())
				}
				o.text = r.Format()
				return nil
			})
		}
	}
	if want("fig9") {
		for _, guarded := range []bool{false, true} {
			guarded := guarded
			name := "fig9-unguarded"
			if guarded {
				name = "fig9-guarded"
			}
			add(name, func(o *jobOut) error {
				cfg := experiments.DefaultFig9Config()
				cfg.UseGuards = guarded
				if quick {
					cfg.Duration = 12
				}
				r, err := experiments.RunFig9(cfg)
				if err != nil {
					return err
				}
				if csv {
					o.file(name+".csv", r.CSV())
				}
				o.text = r.Format()
				return nil
			})
		}
	}
	if want("fig12") {
		add("fig12", func(o *jobOut) error {
			cfg := experiments.DefaultFig12Config()
			if quick {
				cfg.Duration = 8
			}
			r, err := experiments.RunFig12(cfg)
			if err != nil {
				return err
			}
			if csv {
				o.file("fig12.csv", r.CSV())
			}
			o.text = r.Format()
			o.metric("fig12_response_rate_pct", 100*r.ResponseRate)
			o.metric("fig12_replies_per_s", r.RepliesPerSecond)
			return nil
		})
	}
	if want("fig2") {
		add("fig2", func(o *jobOut) error {
			r, err := experiments.RunFig2(3, 42)
			if err != nil {
				return err
			}
			o.text = r.Format()
			return nil
		})
	}
	if want("sweep") {
		add("sweep", func(o *jobOut) error {
			per := units.Seconds(8)
			if quick {
				per = 5
			}
			r, err := experiments.RunRangeSweep(per, 12)
			if err != nil {
				return err
			}
			o.text = r.Format()
			return nil
		})
	}
	if want("sec531") {
		add("sec531", func(o *jobOut) error {
			r, err := experiments.RunSec531(42)
			if err != nil {
				return err
			}
			o.text = r.Format()
			return nil
		})
	}
	if want("sec532") {
		add("sec532", func(o *jobOut) error {
			dur := units.Seconds(40)
			if quick {
				dur = 20
			}
			r, err := experiments.RunSec532(dur, 7)
			if err != nil {
				return err
			}
			o.text = r.Format()
			return nil
		})
	}
	if want("baselines") {
		add("baselines", func(o *jobOut) error {
			dur := units.Seconds(15)
			if quick {
				dur = 10
			}
			r, err := experiments.RunBaselines(dur, 42)
			if err != nil {
				return err
			}
			o.text = r.Format()
			return nil
		})
	}
	if want("ablations") {
		add("ablation-restore-margin", func(o *jobOut) error {
			trials := 20
			if quick {
				trials = 8
			}
			r, err := experiments.RunAblateRestoreMargin(trials, 5)
			if err != nil {
				return err
			}
			o.text = r.Format()
			return nil
		})
		add("ablation-sample-period", func(o *jobOut) error {
			r, err := experiments.RunAblateSamplePeriod(5)
			if err != nil {
				return err
			}
			o.text = r.Format()
			return nil
		})
	}

	if want("explore") {
		add("explore", func(o *jobOut) error {
			cfg := experiments.DefaultExhaustiveConfig()
			cfg.CheckHashes = true
			if quick {
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
		})
	}
	if want("fleet") {
		add("fleet-table4", func(o *jobOut) error {
			cfg := experiments.DefaultFleetTable4Config()
			if fleetTags > 0 {
				cfg.Tags = fleetTags
			}
			if quick {
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
			if csv {
				o.file("fleet-table4.csv", r.CSV())
			}
			return nil
		})
	}
	return jobs
}
