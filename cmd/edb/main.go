// Command edb runs a firmware scenario on the simulated energy-harvesting
// target with the Energy-interference-free Debugger attached, and exposes
// the debug console — locally, or against a remote edbd daemon.
//
// Examples:
//
//	edb -app linkedlist -assert -t 30
//	    run the linked-list app until its keep-alive assert fires, then
//	    open an interactive console on stdin
//
//	edb -app fib -guards -t 20
//	    run the Fibonacci debug build with energy guards
//
//	edb -app activity -print edb -t 10 -trace
//	    trace the activity app with energy-interference-free printf
//
//	edb -app rfid -t 10
//	    inventory the WISP RFID firmware and print the message trace
//
//	edb -app linkedlist -assert -script "vcap;status;halt"
//	    drive interactive sessions from a script instead of stdin
//
//	edb -connect 127.0.0.1:3490 -app linkedlist -assert -script "vcap;halt"
//	    run the same scripted session on an edbd daemon; the output is
//	    byte-identical to the local run
//
//	edb -connect gw1:3490,gw2:3490 -app linkedlist -assert -script "vcap;halt"
//	    the same against two gateways in front of the same backends: the
//	    first live address wins, and if that gateway dies mid-session the
//	    client resumes on the other from its own journal, byte-identically
//	    (a multi-address list implies -reconnect)
//
//	edb -connect host:3490 -tls -tls-ca cert.pem -auth-token s3cret ...
//	    the same against a TLS daemon that checks a shared-secret token
//	    (the token also reads from $EDB_AUTH_TOKEN; add -tls-cert/-tls-key
//	    for mTLS client identity)
//
// Exit status: 0 on success, 1 when the run fails or a scripted console
// command returns an error, 2 on usage errors.
package main

import (
	"bufio"
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/scenario"
	"repro/internal/tracecodec"
	"repro/internal/wire"
)

func main() {
	var (
		appName  = flag.String("app", "linkedlist", "firmware: linkedlist|safelist|fib|activity|rfid|busy")
		asmFile  = flag.String("asm", "", "run an MSP430-subset assembly file instead of -app")
		withAsrt = flag.Bool("assert", false, "enable the keep-alive assertions (linkedlist)")
		guards   = flag.Bool("guards", false, "wrap debug instrumentation in energy guards (fib)")
		printMd  = flag.String("print", "none", "activity print mode: none|uart|edb")
		seconds  = flag.Float64("t", 10, "simulated seconds to run")
		distance = flag.Float64("distance", 1.0, "reader-to-tag distance in meters")
		seed     = flag.Int64("seed", 42, "deterministic seed")
		doTrace  = flag.Bool("trace", false, "print the final 150 ms energy trace")
		traceOut = flag.String("trace-out", "", "write the final energy-trace window as CSV (at_cycles,v), ADC-quantized; implies -trace")
		script   = flag.String("script", "", "semicolon-separated console commands run in each session")
		interact = flag.Bool("i", false, "interactive stdin console when a session opens")
		connect  = flag.String("connect", "", "host:port of an edbd daemon (comma-separated list for a gateway pair); run the session remotely")
		reconn   = flag.Bool("reconnect", false, "with -connect: resume the session transparently if the connection drops (implied by a multi-address -connect)")
		useTLS   = flag.Bool("tls", false, "with -connect: dial the daemon over TLS")
		tlsCA    = flag.String("tls-ca", "", "PEM CA bundle to verify the daemon's certificate (implies -tls)")
		tlsCert  = flag.String("tls-cert", "", "PEM client certificate for mTLS (implies -tls, requires -tls-key)")
		tlsKey   = flag.String("tls-key", "", "PEM private key for -tls-cert")
		insecure = flag.Bool("insecure-skip-verify", false, "with -tls: skip certificate verification (testing only)")
		token    = flag.String("auth-token", os.Getenv("EDB_AUTH_TOKEN"), "with -connect: shared-secret auth token (default $EDB_AUTH_TOKEN)")
	)
	flag.Parse()

	spec := scenario.Spec{
		App:         *appName,
		Assert:      *withAsrt,
		Guards:      *guards,
		Print:       *printMd,
		Seconds:     *seconds,
		Distance:    *distance,
		Seed:        *seed,
		Trace:       *doTrace || *traceOut != "",
		Script:      *script,
		Interactive: *interact,
	}
	if *asmFile != "" {
		src, err := os.ReadFile(*asmFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		spec.AsmName, spec.AsmSource = *asmFile, string(src)
	}
	if err := scenario.Validate(spec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// The stdin prompt drives interactive sessions, local or remote.
	var prompt scenario.PromptFunc
	if *interact {
		sc := bufio.NewScanner(os.Stdin)
		prompt = func() (string, bool) {
			if !sc.Scan() {
				return "", false
			}
			return sc.Text(), true
		}
	}

	if *connect != "" {
		tlsCfg, err := clientTLSConfig(*useTLS, *tlsCA, *tlsCert, *tlsKey, *insecure)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// A multi-address dial list only helps if the client may resume on
		// the surviving peer, so it switches reconnect on.
		reconnect := *reconn || strings.Contains(*connect, ",")
		cl, err := client.Dial(*connect, client.Options{
			Name: "edb-cli", Attempts: 5,
			TLS: tlsCfg, AuthToken: *token, Reconnect: reconnect,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cl.Close()
		var pts []wire.TracePoint
		if *traceOut != "" {
			// OnTrace chunks may alias a reused scratch buffer; appending
			// the values copies them out.
			cl.OnTrace = func(tr *wire.Trace) { pts = append(pts, tr.Samples...) }
		}
		st, err := cl.Run(spec, os.Stdout, prompt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *traceOut != "" {
			if err := writeTraceCSV(*traceOut, pts); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		os.Exit(st.Exit)
	}

	res, err := scenario.Run(spec, os.Stdout, prompt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *traceOut != "" {
		var pts []wire.TracePoint
		if res.Vcap != nil {
			pts = make([]wire.TracePoint, 0, len(res.Vcap.Samples))
			for _, sm := range res.Vcap.Samples {
				pts = append(pts, wire.TracePoint{At: uint64(sm.At), V: sm.V})
			}
		}
		if err := writeTraceCSV(*traceOut, pts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	os.Exit(res.ExitCode)
}

// clientTLSConfig assembles the -connect TLS settings; any TLS-shaped flag
// implies -tls, and a nil config keeps the dial plaintext.
func clientTLSConfig(useTLS bool, caPath, certPath, keyPath string, insecure bool) (*tls.Config, error) {
	if !useTLS && caPath == "" && certPath == "" && !insecure {
		return nil, nil
	}
	if (certPath == "") != (keyPath == "") {
		return nil, fmt.Errorf("edb: -tls-cert and -tls-key must be set together")
	}
	cfg := &tls.Config{InsecureSkipVerify: insecure}
	if caPath != "" {
		pemCA, err := os.ReadFile(caPath)
		if err != nil {
			return nil, fmt.Errorf("edb: read CA: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pemCA) {
			return nil, fmt.Errorf("edb: no certificates in %s", caPath)
		}
		cfg.RootCAs = pool
	}
	if certPath != "" {
		cert, err := tls.LoadX509KeyPair(certPath, keyPath)
		if err != nil {
			return nil, fmt.Errorf("edb: load client keypair: %w", err)
		}
		cfg.Certificates = []tls.Certificate{cert}
	}
	return cfg, nil
}

// writeTraceCSV writes the trace window as at_cycles,v rows. Voltages pass
// through the codec's ADC quantizer, so the file is identical whether the
// samples came from a local run or a remote stream (already quantized),
// direct or through a gateway — which scripts/smoke.sh exploits to diff
// them.
func writeTraceCSV(path string, pts []wire.TracePoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "at_cycles,v")
	for _, p := range pts {
		fmt.Fprintf(bw, "%d,%s\n", p.At, strconv.FormatFloat(tracecodec.Quantize(p.V), 'g', -1, 64))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
