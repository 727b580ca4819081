#!/usr/bin/env sh
# End-to-end smoke test for edbd: start the daemon, run the same scripted
# scenario locally and over the wire, and require byte-identical output,
# a clean daemon drain, and correct exit codes.
set -eu

workdir=$(mktemp -d)
daemon_pid=""
tls_daemon_pid=""
held_pid=""
backend_a_pid=""
backend_b_pid=""
backend_c_pid=""
backend_d_pid=""
backend_e_pid=""
gateway_pid=""
gw1_pid=""
gw2_pid=""
cleanup() {
    for pid in "$daemon_pid" "$tls_daemon_pid" "$held_pid" "$backend_a_pid" \
               "$backend_b_pid" "$backend_c_pid" "$backend_d_pid" \
               "$backend_e_pid" "$gateway_pid" "$gw1_pid" "$gw2_pid"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

# wait_addr logfile varname — poll a daemon log for its listen address.
wait_addr() {
    _log=$1
    _addr=""
    _i=0
    while [ $_i -lt 100 ]; do
        _addr=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$_log" | head -n1)
        [ -n "$_addr" ] && break
        sleep 0.1
        _i=$((_i + 1))
    done
    echo "$_addr"
}

echo "smoke: building edb and edbd"
go build -o "$workdir/edb" ./cmd/edb
go build -o "$workdir/edbd" ./cmd/edbd

echo "smoke: starting edbd on an ephemeral port"
"$workdir/edbd" -addr 127.0.0.1:0 -v 2>"$workdir/edbd.log" &
daemon_pid=$!

# The daemon logs "edbd: listening on host:port" once the socket is up.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/.*listening on \([0-9.]*:[0-9]*\).*/\1/p' "$workdir/edbd.log" | head -n1)
    [ -n "$addr" ] && break
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "smoke: FAIL — daemon died during startup:" >&2
        cat "$workdir/edbd.log" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "smoke: FAIL — daemon never reported its address" >&2
    cat "$workdir/edbd.log" >&2
    exit 1
fi
echo "smoke: daemon at $addr"

script="vcap;read 0x4408;status;halt"
common="-app linkedlist -assert -t 10 -seed 42 -script"

echo "smoke: running scripted session locally"
"$workdir/edb" $common "$script" >"$workdir/local.out"

echo "smoke: running the same session via -connect"
"$workdir/edb" -connect "$addr" $common "$script" >"$workdir/remote.out"

if ! diff -u "$workdir/local.out" "$workdir/remote.out"; then
    echo "smoke: FAIL — remote output differs from local" >&2
    exit 1
fi
echo "smoke: remote output is byte-identical to local ($(wc -c <"$workdir/local.out") bytes)"

echo "smoke: diffing local vs remote trace streams"
"$workdir/edb" $common "$script" -trace-out "$workdir/local.csv" >/dev/null
"$workdir/edb" -connect "$addr" $common "$script" -trace-out "$workdir/tracez.csv" >/dev/null
if ! diff -u "$workdir/local.csv" "$workdir/tracez.csv"; then
    echo "smoke: FAIL — codec-decoded remote trace differs from local" >&2
    exit 1
fi
lines=$(wc -l <"$workdir/local.csv")
if [ "$lines" -le 1 ]; then
    echo "smoke: FAIL — trace CSV is empty" >&2
    exit 1
fi
echo "smoke: remote trace stream identical to local ($((lines - 1)) samples)"

echo "smoke: checking that a failing script exits non-zero remotely"
if "$workdir/edb" -connect "$addr" -app linkedlist -assert -t 10 -seed 42 \
        -script "not-a-command;halt" >/dev/null 2>&1; then
    echo "smoke: FAIL — failing script exited 0" >&2
    exit 1
fi

echo "smoke: bounded exhaustive exploration (unguarded vs guarded)"
# The console's explore command model-checks the firmware: the unguarded
# linked list must be flagged with a WAR violation, the guarded build must
# verify clean over the same bounds, and the report must be byte-identical
# over the wire (worker-count-independent determinism).
explore_script="explore depth=2 writes=8 states=64; explore guards depth=2 writes=8 states=64; halt"
"$workdir/edb" $common "$explore_script" >"$workdir/explore-local.out"
if ! grep -q "WAR violations:" "$workdir/explore-local.out"; then
    echo "smoke: FAIL — explore did not flag the unguarded WAR bug" >&2
    cat "$workdir/explore-local.out" >&2
    exit 1
fi
if ! grep -q "no WAR violations detected" "$workdir/explore-local.out"; then
    echo "smoke: FAIL — explore flagged the guarded build" >&2
    cat "$workdir/explore-local.out" >&2
    exit 1
fi
"$workdir/edb" -connect "$addr" $common "$explore_script" >"$workdir/explore-remote.out"
if ! diff -u "$workdir/explore-local.out" "$workdir/explore-remote.out"; then
    echo "smoke: FAIL — remote explore output differs from local" >&2
    exit 1
fi
echo "smoke: explore flags the unguarded bug, passes the guarded build, identical over the wire"

echo "smoke: generating an ephemeral TLS keypair"
go run ./scripts/gencert -out "$workdir/certs" -hosts 127.0.0.1 >/dev/null

echo "smoke: starting a TLS + require-auth edbd with a metrics listener"
EDBD_AUTH_TOKEN=smoke-secret "$workdir/edbd" -addr 127.0.0.1:0 \
    -tls-cert "$workdir/certs/cert.pem" -tls-key "$workdir/certs/key.pem" \
    -require-auth -metrics 127.0.0.1:0 -v 2>"$workdir/edbd-tls.log" &
tls_daemon_pid=$!
tls_addr=$(wait_addr "$workdir/edbd-tls.log")
if [ -z "$tls_addr" ]; then
    echo "smoke: FAIL — TLS daemon never reported its address" >&2
    cat "$workdir/edbd-tls.log" >&2
    exit 1
fi
if ! grep -q "(tls+token)" "$workdir/edbd-tls.log"; then
    echo "smoke: FAIL — TLS daemon did not report tls+token mode" >&2
    cat "$workdir/edbd-tls.log" >&2
    exit 1
fi
echo "smoke: TLS daemon at $tls_addr"

echo "smoke: checking that the metrics pages do not serve the token"
# -metrics serves expvar (whose cmdline var is the command line) and the
# pprof profiler (/debug/pprof/cmdline) without authentication, so the
# token must never be on the command line.
metrics_addr=$(sed -n 's/.*metrics and profiler at http:\/\/\([0-9.]*:[0-9]*\)\/.*/\1/p' "$workdir/edbd-tls.log" | head -n1)
if [ -z "$metrics_addr" ]; then
    echo "smoke: FAIL — TLS daemon never reported its metrics address" >&2
    cat "$workdir/edbd-tls.log" >&2
    exit 1
fi
curl -sf "http://$metrics_addr/debug/vars" >"$workdir/vars.out"
curl -sf "http://$metrics_addr/debug/pprof/cmdline" >"$workdir/cmdline.out"
if ! grep -q '"edbd"' "$workdir/vars.out" || ! grep -q "edbd" "$workdir/cmdline.out"; then
    echo "smoke: FAIL — the metrics listener did not serve /debug/vars and /debug/pprof/cmdline" >&2
    exit 1
fi
if grep -q "smoke-secret" "$workdir/vars.out" "$workdir/cmdline.out"; then
    echo "smoke: FAIL — a metrics page serves the auth token" >&2
    exit 1
fi

echo "smoke: checking that a daemon whose -metrics address is taken does not start"
"$workdir/edbd" -addr 127.0.0.1:0 -metrics "$metrics_addr" 2>"$workdir/edbd-held.log" &
held_pid=$!
i=0
while [ $i -lt 50 ] && kill -0 "$held_pid" 2>/dev/null; do
    sleep 0.1
    i=$((i + 1))
done
if kill -0 "$held_pid" 2>/dev/null; then
    echo "smoke: FAIL — a daemon without its metrics endpoint still runs after 5 s" >&2
    cat "$workdir/edbd-held.log" >&2
    exit 1
fi
held_rc=0
wait "$held_pid" || held_rc=$?
held_pid=""
if [ "$held_rc" -eq 0 ] || grep -q "listening on" "$workdir/edbd-held.log"; then
    echo "smoke: FAIL — a daemon whose metrics address is taken started (rc $held_rc)" >&2
    cat "$workdir/edbd-held.log" >&2
    exit 1
fi

echo "smoke: running the scripted session over TLS with a token"
"$workdir/edb" -connect "$tls_addr" -tls -tls-ca "$workdir/certs/cert.pem" \
    -auth-token smoke-secret $common "$script" >"$workdir/tls.out"
if ! diff -u "$workdir/local.out" "$workdir/tls.out"; then
    echo "smoke: FAIL — TLS+auth remote output differs from local" >&2
    exit 1
fi
echo "smoke: TLS+auth remote output is byte-identical to local"

echo "smoke: checking that a wrong token is rejected"
if "$workdir/edb" -connect "$tls_addr" -tls -tls-ca "$workdir/certs/cert.pem" \
        -auth-token wrong-secret $common "$script" >/dev/null 2>"$workdir/badtoken.err"; then
    echo "smoke: FAIL — wrong token was accepted" >&2
    exit 1
fi
if ! grep -q "authentication failed" "$workdir/badtoken.err"; then
    echo "smoke: FAIL — wrong-token error is not the typed auth rejection:" >&2
    cat "$workdir/badtoken.err" >&2
    exit 1
fi

echo "smoke: checking that a token-less client is rejected"
if "$workdir/edb" -connect "$tls_addr" -tls -tls-ca "$workdir/certs/cert.pem" \
        $common "$script" >/dev/null 2>&1; then
    echo "smoke: FAIL — token-less client was accepted by -require-auth" >&2
    exit 1
fi

echo "smoke: draining the TLS daemon with SIGTERM"
kill -TERM "$tls_daemon_pid"
tls_rc=0
wait "$tls_daemon_pid" || tls_rc=$?
tls_daemon_pid=""
if [ "$tls_rc" -ne 0 ] || ! grep -q "drained cleanly" "$workdir/edbd-tls.log"; then
    echo "smoke: FAIL — TLS daemon did not drain cleanly (rc $tls_rc)" >&2
    cat "$workdir/edbd-tls.log" >&2
    exit 1
fi

echo "smoke: draining the daemon with SIGTERM"
kill -TERM "$daemon_pid"
drain_rc=0
wait "$daemon_pid" || drain_rc=$?
daemon_pid=""
if [ "$drain_rc" -ne 0 ]; then
    echo "smoke: FAIL — daemon exited $drain_rc on SIGTERM" >&2
    cat "$workdir/edbd.log" >&2
    exit 1
fi
if ! grep -q "drained cleanly" "$workdir/edbd.log"; then
    echo "smoke: FAIL — daemon did not report a clean drain" >&2
    cat "$workdir/edbd.log" >&2
    exit 1
fi

echo "smoke: starting a two-backend gateway fleet"
"$workdir/edbd" -addr 127.0.0.1:0 -v 2>"$workdir/backend-a.log" &
backend_a_pid=$!
"$workdir/edbd" -addr 127.0.0.1:0 -v 2>"$workdir/backend-b.log" &
backend_b_pid=$!
addr_a=$(wait_addr "$workdir/backend-a.log")
addr_b=$(wait_addr "$workdir/backend-b.log")
if [ -z "$addr_a" ] || [ -z "$addr_b" ]; then
    echo "smoke: FAIL — gateway backends never reported their addresses" >&2
    cat "$workdir/backend-a.log" "$workdir/backend-b.log" >&2
    exit 1
fi
"$workdir/edbd" -gateway -addr 127.0.0.1:0 -backends "$addr_a,$addr_b" -v \
    2>"$workdir/gateway.log" &
gateway_pid=$!
gw_addr=$(wait_addr "$workdir/gateway.log")
if [ -z "$gw_addr" ]; then
    echo "smoke: FAIL — gateway never reported its address" >&2
    cat "$workdir/gateway.log" >&2
    exit 1
fi
echo "smoke: gateway at $gw_addr routing to $addr_a, $addr_b"

echo "smoke: trace stream through the gateway"
"$workdir/edb" -connect "$gw_addr" $common "$script" -trace-out "$workdir/gw.csv" >/dev/null
if ! diff -u "$workdir/local.csv" "$workdir/gw.csv"; then
    echo "smoke: FAIL — trace streamed through the gateway differs from local" >&2
    exit 1
fi
echo "smoke: trace through the gateway identical to local"

# Golden: the same interactive command sequence against a local rig.
icommon="-app linkedlist -assert -t 10 -seed 42 -i"
printf 'vcap\nstatus\nhalt\n' | "$workdir/edb" $icommon >"$workdir/local-i.out"

echo "smoke: explore through the gateway"
# The gateway forwards `explore ...` to the session's backend like any
# other console line, so the bytes must match a local run of the same
# search.
explore_i="explore depth=2 writes=8 states=64"
printf '%s\nhalt\n' "$explore_i" | "$workdir/edb" $icommon >"$workdir/explore-1p.out"
printf '%s\nhalt\n' "$explore_i" | "$workdir/edb" -connect "$gw_addr" $icommon >"$workdir/explore-gw.out"
if ! diff -u "$workdir/explore-1p.out" "$workdir/explore-gw.out"; then
    echo "smoke: FAIL — explore through the gateway differs from local" >&2
    cat "$workdir/gateway.log" >&2
    exit 1
fi
if ! grep -q "WAR violations:" "$workdir/explore-gw.out"; then
    echo "smoke: FAIL — explore through the gateway did not flag the unguarded WAR bug" >&2
    cat "$workdir/explore-gw.out" >&2
    exit 1
fi
echo "smoke: explore through the gateway byte-identical to local, bug flagged"

# Through the gateway, losing both original backends mid-session: first a
# graceful SIGTERM (the backend hands its sessions back as SessMigrate),
# then — after a replacement joins — a hard SIGKILL mid-prompt (crash
# failover via journal replay). The client's bytes must not change.
fifo="$workdir/cmds"
mkfifo "$fifo"
"$workdir/edb" -connect "$gw_addr" $icommon <"$fifo" >"$workdir/gw-i.out" &
edb_pid=$!
exec 3>"$fifo"
printf 'vcap\n' >&3
sleep 0.5
kill -TERM "$backend_a_pid"
sleep 0.3
# Migration happens at prompt boundaries, so the next command is what
# drives a session off the draining backend; A can only finish its drain
# once the client makes progress.
printf 'status\n' >&3
wait "$backend_a_pid" || {
    echo "smoke: FAIL — backend A did not drain cleanly under the gateway" >&2
    cat "$workdir/backend-a.log" >&2
    exit 1
}
backend_a_pid=""
"$workdir/edbd" -addr 127.0.0.1:0 -join "$gw_addr" -v 2>"$workdir/backend-c.log" &
backend_c_pid=$!
i=0
while [ $i -lt 100 ]; do
    grep -q "registered with gateway" "$workdir/backend-c.log" && break
    sleep 0.1
    i=$((i + 1))
done
if ! grep -q "registered with gateway" "$workdir/backend-c.log"; then
    echo "smoke: FAIL — replacement backend never joined the gateway" >&2
    cat "$workdir/backend-c.log" >&2
    exit 1
fi
sleep 0.5
kill -KILL "$backend_b_pid"
wait "$backend_b_pid" 2>/dev/null || true
backend_b_pid=""
printf 'halt\n' >&3
exec 3>&-
edb_rc=0
wait "$edb_pid" || edb_rc=$?
if [ "$edb_rc" -ne 0 ]; then
    echo "smoke: FAIL — gateway session exited $edb_rc after backend loss" >&2
    cat "$workdir/gateway.log" >&2
    exit 1
fi
if ! diff -u "$workdir/local-i.out" "$workdir/gw-i.out"; then
    echo "smoke: FAIL — gateway output differs from local after losing both backends" >&2
    cat "$workdir/gateway.log" >&2
    exit 1
fi
echo "smoke: gateway session survived a drain and a kill, output byte-identical to local"

echo "smoke: stopping the gateway fleet"
kill -TERM "$gateway_pid"
gw_rc=0
wait "$gateway_pid" || gw_rc=$?
gateway_pid=""
if [ "$gw_rc" -ne 0 ] || ! grep -q "gateway stopped cleanly" "$workdir/gateway.log"; then
    echo "smoke: FAIL — gateway did not stop cleanly (rc $gw_rc)" >&2
    cat "$workdir/gateway.log" >&2
    exit 1
fi
kill -TERM "$backend_c_pid" 2>/dev/null || true
wait "$backend_c_pid" 2>/dev/null || true
backend_c_pid=""

echo "smoke: starting a replicated two-gateway fleet"
# Two gateways that share no state, then two backends that register with
# BOTH gateways through one comma-separated -join.
"$workdir/edbd" -gateway -addr 127.0.0.1:0 -v 2>"$workdir/gw1.log" &
gw1_pid=$!
gw1_addr=$(wait_addr "$workdir/gw1.log")
if [ -z "$gw1_addr" ]; then
    echo "smoke: FAIL — first gateway never reported its address" >&2
    cat "$workdir/gw1.log" >&2
    exit 1
fi
"$workdir/edbd" -gateway -addr 127.0.0.1:0 -v 2>"$workdir/gw2.log" &
gw2_pid=$!
gw2_addr=$(wait_addr "$workdir/gw2.log")
if [ -z "$gw2_addr" ]; then
    echo "smoke: FAIL — second gateway never reported its address" >&2
    cat "$workdir/gw2.log" >&2
    exit 1
fi
"$workdir/edbd" -addr 127.0.0.1:0 -join "$gw1_addr,$gw2_addr" -v 2>"$workdir/backend-d.log" &
backend_d_pid=$!
"$workdir/edbd" -addr 127.0.0.1:0 -join "$gw1_addr,$gw2_addr" -v 2>"$workdir/backend-e.log" &
backend_e_pid=$!
for blog in backend-d backend-e; do
    for gw in "$gw1_addr" "$gw2_addr"; do
        i=0
        while [ $i -lt 100 ]; do
            grep -q "registered with gateway $gw" "$workdir/$blog.log" && break
            sleep 0.1
            i=$((i + 1))
        done
        if ! grep -q "registered with gateway $gw" "$workdir/$blog.log"; then
            echo "smoke: FAIL — $blog never joined gateway $gw" >&2
            cat "$workdir/$blog.log" >&2
            exit 1
        fi
    done
done
echo "smoke: gateways $gw1_addr and $gw2_addr, two backends joined both"

echo "smoke: SIGKILL of the active gateway mid-session"
# The client's dial list names both gateways; it connects to gw1 (listed
# first). Mid-session, gw1 is killed outright — no drain, no hand-off
# frames. With gw1 dead and only the two gateways in the dial list, a
# finished session can only have been resumed on gw2, from the client's
# own journal; its transcript must be byte-identical to the earlier
# single-gateway and local runs.
fifo2="$workdir/cmds2"
mkfifo "$fifo2"
"$workdir/edb" -connect "$gw1_addr,$gw2_addr" $icommon <"$fifo2" >"$workdir/repl-i.out" &
edb2_pid=$!
exec 4>"$fifo2"
printf 'vcap\n' >&4
sleep 1
kill -KILL "$gw1_pid"
wait "$gw1_pid" 2>/dev/null || true
gw1_pid=""
printf 'status\n' >&4
printf 'halt\n' >&4
exec 4>&-
edb2_rc=0
wait "$edb2_pid" || edb2_rc=$?
if [ "$edb2_rc" -ne 0 ]; then
    echo "smoke: FAIL — session exited $edb2_rc after the active gateway was killed" >&2
    cat "$workdir/gw2.log" >&2
    exit 1
fi
if ! diff -u "$workdir/local-i.out" "$workdir/repl-i.out"; then
    echo "smoke: FAIL — replicated-gateway transcript differs from the single-gateway run" >&2
    cat "$workdir/gw2.log" >&2
    exit 1
fi
echo "smoke: active-gateway SIGKILL survived; gw2 resumed the session, transcript byte-identical"

echo "smoke: stopping the replicated fleet"
kill -TERM "$gw2_pid"
gw2_rc=0
wait "$gw2_pid" || gw2_rc=$?
gw2_pid=""
if [ "$gw2_rc" -ne 0 ]; then
    echo "smoke: FAIL — surviving gateway exited $gw2_rc on SIGTERM" >&2
    cat "$workdir/gw2.log" >&2
    exit 1
fi
for pidvar in backend_d_pid backend_e_pid; do
    eval "pid=\$$pidvar"
    kill -TERM "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    eval "$pidvar=''"
done

echo "smoke: batched-vs-sequential fleet equivalence"
# The fleet kernel's golden property: a batched run must be byte-identical
# to N sequential Rig runs, at any worker count and slice length.
go test ./internal/fleet -run 'TestFleetMatchesSequential|TestFleetSliceInvariance' -count=1 >/dev/null

echo "smoke: fleet benchmark quick pass"
go run ./cmd/edb-bench -exp fleet-bench,kernel -quick -json -out '' >"$workdir/fleet.json"
if ! grep -q '"fleet_speedup_x"' "$workdir/fleet.json"; then
    echo "smoke: FAIL — fleet benchmark reported no speedup metric" >&2
    cat "$workdir/fleet.json" >&2
    exit 1
fi

echo "smoke: PASS"
