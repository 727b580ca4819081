// RFID demonstrates §5.3.4: debugging and tuning an RFID application by
// correlating the message stream with the energy state — a view no single
// conventional instrument can produce.
//
// The WISP firmware decodes reader queries in software and backscatters
// replies; the reader's carrier is simultaneously the tag's energy source.
// EDB decodes both directions externally — including frames the tag failed
// to parse — and stamps each against its energy trace.
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/rfid"
	"repro/internal/trace"
)

func main() {
	readerCfg := rfid.DefaultReaderConfig()
	readerCfg.Distance = 1.44 // weak enough that some queries land in charging gaps

	app := &apps.WispRFID{}
	rig, err := core.NewRig(app, core.WithSeed(12), core.WithReader(readerCfg))
	if err != nil {
		log.Fatal(err)
	}
	vcap := rig.EDB.TraceVcap()

	if _, err := rig.Run(10 * core.Second); err != nil {
		log.Fatal(err)
	}

	st := rig.Reader.Stats()
	fmt.Printf("reader: %d queries sent (%d corrupted in flight), %d responses heard\n",
		st.QueriesSent, st.CorruptedSent, st.RN16Heard)
	fmt.Printf("response rate: %.0f%%   replies/second: %.1f\n",
		100*rig.Reader.ResponseRate(), float64(st.RN16Heard)/10)
	fw := app.Stats(rig.Device)
	fmt.Printf("firmware: decoded %d queries, sent %d replies, burned energy on %d corrupt frames\n",
		fw.Queries, fw.Replies, fw.Corrupt)

	// The correlated view of the last 300 ms: energy trace + messages.
	fmt.Println("\nVcap, last 300 ms:")
	total := rig.Device.Clock.Now()
	window := rig.Device.Clock.ToCycles(300 * core.Millisecond)
	late := trace.NewSeries(vcap.Name, vcap.Unit)
	late.Samples = vcap.Window(total-window, total)
	fmt.Print(trace.RenderASCII(late, rig.Device.Clock, 72, 10))

	fmt.Println("RFID messages in the same window (→ reader-to-tag, ← tag-to-reader):")
	for _, ev := range rig.EDB.Events().Events() {
		if ev.At < total-window {
			continue
		}
		switch ev.Kind {
		case "rfid-rx":
			fmt.Printf("  t=%8.4fs → %s\n", float64(rig.Device.Clock.ToSeconds(ev.At)), ev.Text)
		case "rfid-tx":
			fmt.Printf("  t=%8.4fs ← %s\n", float64(rig.Device.Clock.ToSeconds(ev.At)), ev.Text)
		}
	}
}
