package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/rfid"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// Fig12Config parameterizes the §5.3.4 RFID case study.
type Fig12Config struct {
	Duration units.Seconds
	Reader   rfid.ReaderConfig
	Seed     int64
}

// DefaultFig12Config runs 20 simulated seconds against the default reader.
func DefaultFig12Config() Fig12Config {
	cfg := Fig12Config{Duration: 20, Reader: rfid.DefaultReaderConfig(), Seed: 12}
	// Back the tag off to a range where decoding + replying outruns the
	// harvest some of the time, so queries land in charging gaps — the
	// regime Fig. 12 shows.
	cfg.Reader.Distance = 1.44
	cfg.Reader.QueryPeriod = 0.062
	return cfg
}

// Fig12Result reproduces Figure 12: incoming and outgoing RFID messages
// correlated with the energy level recorded by EDB.
type Fig12Result struct {
	Vcap  *trace.Series
	Clock *sim.Clock
	// Messages is the EDB-decoded message stream (kind: rfid-rx/rfid-tx,
	// text: CMD_QUERY / CMD_QUERYREP / RSP_GENERIC / …).
	Messages []trace.Event
	// ResponseRate is replies per query heard at the reader (the paper
	// reports 86 %).
	ResponseRate float64
	// RepliesPerSecond is the reply throughput (the paper reports ~13/s).
	RepliesPerSecond float64
	// CorruptSeen counts frames EDB classified as corrupted in flight —
	// the discrimination an oscilloscope cannot make.
	CorruptSeen int
	Reader      rfid.ReaderStats
	Firmware    apps.RFIDStats
	Result      device.RunResult
}

// RunFig12 runs the WISP RFID firmware under a continuously inventorying
// reader with EDB monitoring RF I/O and energy concurrently.
func RunFig12(cfg Fig12Config) (Fig12Result, error) {
	def := DefaultFig12Config()
	if cfg.Duration == 0 {
		cfg.Duration = def.Duration
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if cfg.Reader.QueryPeriod == 0 {
		cfg.Reader = def.Reader
	}
	reader, harv := rfid.NewReader(cfg.Reader)
	d := device.NewWISP5(harv, cfg.Seed)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	e.SetRFDecoder(rfid.FrameName)
	e.TraceVcap()

	app := &apps.WispRFID{}
	r := device.NewRunner(d, app)
	if err := r.Flash(); err != nil {
		return Fig12Result{}, err
	}
	reader.Attach(d)
	reader.Start()
	defer reader.Stop()

	res, err := r.RunFor(cfg.Duration)
	if err != nil {
		return Fig12Result{}, err
	}

	var msgs []trace.Event
	corrupt := 0
	for _, ev := range e.Events().Events() {
		if ev.Kind == "rfid-rx" || ev.Kind == "rfid-tx" {
			msgs = append(msgs, ev)
			if strings.Contains(ev.Text, "corrupt") {
				corrupt++
			}
		}
	}
	st := reader.Stats()
	return Fig12Result{
		Vcap:             e.VcapSeries(),
		Clock:            d.Clock,
		Messages:         msgs,
		ResponseRate:     reader.ResponseRate(),
		RepliesPerSecond: float64(st.RN16Heard) / float64(cfg.Duration),
		CorruptSeen:      corrupt,
		Reader:           st,
		Firmware:         app.Stats(d),
		Result:           res,
	}, nil
}

// CSV returns the Vcap trace as "t_seconds,volts" lines; the message
// stream is in Messages.
func (r Fig12Result) CSV() string { return trace.CSV(r.Vcap, r.Clock) }

// Format renders the correlated message/energy view plus the §5.3.4
// metrics.
func (r Fig12Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 12 — RFID messages correlated with energy level\n")
	total := r.Clock.Now()
	window := r.Clock.ToCycles(units.MilliSeconds(400))
	from := sim.Cycles(0)
	if total > window {
		from = total - window
	}
	b.WriteString(trace.RenderASCII(windowSeries(r.Vcap, from, total), r.Clock, 72, 10))
	b.WriteString("messages in the same window:\n")
	for _, m := range r.Messages {
		if m.At < from {
			continue
		}
		dir := "->"
		if m.Kind == "rfid-tx" {
			dir = "<-"
		}
		fmt.Fprintf(&b, "  t=%8.4fs %s %s\n", float64(r.Clock.ToSeconds(m.At)), dir, m.Text)
	}
	fmt.Fprintf(&b, "response rate: %.0f %% of queries (paper: 86 %%)\n", 100*r.ResponseRate)
	fmt.Fprintf(&b, "replies/second: %.1f (paper: ~13)\n", r.RepliesPerSecond)
	fmt.Fprintf(&b, "reader: %+v\n", r.Reader)
	fmt.Fprintf(&b, "firmware: %+v  corrupt frames classified by EDB: %d\n", r.Firmware, r.CorruptSeen)
	return b.String()
}
