#!/bin/sh
# ci.sh — the full local CI gate. Run from the repository root:
#
#   ./ci.sh
#
# Steps: formatting, vet plus the repo-local Go lint suite (cmd/rilvet
# — determinism, durability and concurrency invariants over the repo's
# own Go source, with a self-lint check and a deliberately-broken
# fixture proving the gate bites), build (native, then for darwin and
# freebsd), tests under the race detector (internal/report's, whose
# attack tables end at wall-clock budgets, after the rest rather than
# beside them),
# doubled -race passes over the sweep runner, rild's job manifest log,
# Sensitize's key-bit workers and the result cache with its
# durable-write package (all scheduling-sensitive), a coverage gate on
# the journal-bearing attack package, the sweep runner, the result cache, the durable writer and
# the rild daemon, a benchmark
# smoke that also emits .bench_build/ci/BENCH_8.json (oracle
# fast path, miter stamping, portfolio solve, sensitization, the
# pigeonhole solver, the compiled simulator, core.Lock on c7552), a
# portfolio gate (three-way differential, clause exchange, portfolio-attack,
# golden-trajectory and journal-compatibility suites under -race, plus
# a clause-exchange fuzz smoke), a fuzz
# smoke stage (10s per parser/journal/stamp/audit/suppression target), the
# netlint gate
# — every checked-in .bench benchmark and a freshly locked circuit
# must pass the full analyzer set including the resilience audit,
# deliberately broken netlists (combinational cycle, dead key bit)
# must be rejected with the right analyzer named, and the planted
# redundant-key fixture must be caught by the audit with the right
# effective key length — the tests of cmd/rilperf, a module of its
# own that go test ./... skips, under -race — a rilperf correctness
# smoke (the benchmark
# workloads with exact gates in quick mode, each op through its
# correctness gate) — a kill-and-resume smoke: a checkpointed attack
# sweep is SIGKILLed mid-run, resumed, and every target's DIP journal
# must end with a done record; its single-target leg checks that one
# checkpointed target's journal ends done, and that -resume answers
# from it with zero oracle queries and every DIP replayed; its
# key-file smoke checks that locker's key binds back
# through nettool to a circuit equivalent to c17, and that satattack
# rejects a key bit other than 0 or 1 and names the line — and finally the result-cache gate: the same report
# sweep, with real solver work, runs cold then warm against one
# -cache-dir, the warm run must be byte-identical, all hits and at
# least 5x faster, with the timings published as
# .bench_build/ci/BENCH_9.json; then Table V runs cold and warm
# against a fresh -cache-dir, and the warm run must print the cold
# run's bytes with 0 misses and one hit per cold store — and the rild
# daemon gate: a
# race-built cmd/rild serves a 200-job load flood with zero lost or
# duplicated results, answers well-formed /metrics whose counters
# match the load, and drains clean (exit 0, no temp litter) on
# SIGTERM.
#
# The outputs of the benchmark smoke and the cache gate go to the
# ignored .bench_build/ci/, so a run leaves the tracked tree as it
# found it; the tracked BENCH_8.json and BENCH_9.json are the records
# of the changes that introduced those stages.
set -eu

ci_out=.bench_build/ci
mkdir -p "$ci_out"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== rilvet (Go-code determinism/durability/concurrency invariants) =="
# Zero unsuppressed findings across the repo.
go run ./cmd/rilvet ./...

echo "== rilvet: lints itself =="
go run ./cmd/rilvet internal/golint cmd/rilvet

echo "== rilvet: the gate bites on a known-bad fixture =="
if go run ./cmd/rilvet internal/golint/testdata/src/rand-global > rilvet_fixture.out 2>&1; then
    echo "ci: rilvet passed the deliberately broken fixture" >&2
    cat rilvet_fixture.out >&2
    exit 1
fi
grep -q 'rand-global' rilvet_fixture.out || {
    echo "ci: fixture failure not attributed to rand-global:" >&2
    cat rilvet_fixture.out >&2
    exit 1
}
rm -f rilvet_fixture.out

echo "== go build =="
go build ./...

echo "== go build for darwin and freebsd =="
# internal/cache reads an entry's modification time from
# syscall.Stat_t, whose field is Mtimespec on darwin, freebsd and
# netbsd and Mtim on linux, so the native build never compiles the
# first spelling.
GOOS=darwin go build ./...
GOOS=freebsd go build ./...

echo "== go test -race =="
# internal/report's tests run after the other packages' rather than
# beside them. Its attack-table cells end at wall-clock budgets
# (ROADMAP item 1) and spread over every core: under -race, Table V's
# XOR SAT cell needs about 400 ms of its 500 ms, so another package's
# race tests sharing the cores push it past the budget. Same tests,
# same budgets, same assertions.
pkgs=$(go list ./... | grep -v '/internal/report$')
go test -race $pkgs
go test -race ./internal/report/

echo "== sweep runner, rild's job manifest and Sensitize's key-bit workers under -race, doubled =="
go test -race -count=2 ./internal/sweep/
go test -race -count=2 -run '^TestManifest' ./internal/serve/
go test -race -count=2 -run '^TestSensitize' ./internal/attack/

echo "== result cache and durable writes under -race, doubled =="
# Get/Put/GC hammer across goroutines; doubled because the failure
# mode (GC deleting a live writer's staged temp) is
# scheduling-sensitive. internal/durable is the write path every
# cache entry, journal, manifest and job spec goes through.
go test -race -count=2 ./internal/cache/ ./internal/durable/

echo "== coverage gate (internal/attack, internal/sweep, internal/cache, internal/durable, internal/serve >= 70%) =="
for pkg in ./internal/attack/ ./internal/sweep/ ./internal/cache/ ./internal/durable/ ./internal/serve/; do
    cov=$(go test -cover "$pkg" | awk '/coverage:/ { sub("%", "", $(NF-2)); print $(NF-2) }')
    if [ -z "$cov" ]; then
        echo "ci: could not read coverage for $pkg" >&2
        exit 1
    fi
    ok=$(awk -v c="$cov" 'BEGIN { print (c >= 70.0) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "ci: $pkg coverage ${cov}% is below the 70% gate" >&2
        exit 1
    fi
    echo "ci: $pkg coverage ${cov}%"
done

echo "== benchmark smoke (oracle fast path, miter stamping, portfolio solve, sensitization, solver, simulator, lock) =="
go test ./internal/attack/ -run='^$' -bench='Oracle|MiterStampVsReencode|SolvePortfolio|SensitizeXOR' \
    -benchtime=1x -timeout 20m | tee "$ci_out/bench_smoke.out"
# PHP(8,7) alone: the solver layer without an attack around it, with
# thousands of learnt-clause deletions.
go test ./internal/sat/ -run='^$' -bench='^BenchmarkSolver_Pigeonhole7$' -benchtime=1x | tee -a "$ci_out/bench_smoke.out"
# The compiled simulator: one word through an AES round, and exhaustive
# sweeps of 16-input, 300-gate random netlists (words/s); 200 ops each,
# so a word's few microseconds are not lost in timer resolution.
go test ./internal/netlist/ -run='^$' -bench='^BenchmarkSimulator_' -benchtime=200x | tee -a "$ci_out/bench_smoke.out"
# core.Lock: three 8x8x8 blocks on c7552@0.25 and Table I's largest
# lock, 100 2x2 blocks on c7552@0.1.
go test ./internal/core/ -run='^$' -bench='^BenchmarkLock_' -benchtime=1x | tee -a "$ci_out/bench_smoke.out"
# Publish the smoke results as BENCH_8.json (one object per benchmark)
# so tooling can trend the oracle fast path, template stamper, portfolio
# solver, sensitization, the sequential solver and the simulator
# without parsing go test output.
awk '
    BEGIN { print "["; n = 0 }
    /^Benchmark/ {
        sub(/-[0-9]+$/, "", $1);  # GOMAXPROCS suffix: keep names stable across hosts
        if (n++) print ",";
        printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s}", $1, $2, $3
    }
    END { if (n) print ""; print "]" }
' "$ci_out/bench_smoke.out" > "$ci_out/BENCH_8.json"
[ -s "$ci_out/BENCH_8.json" ] || { echo "ci: $ci_out/BENCH_8.json is empty" >&2; exit 1; }
echo "ci: wrote $ci_out/BENCH_8.json"

echo "== portfolio gate: three-way differential + exchange under -race =="
# The differential layer that admits the portfolio solver: a sliced
# three-way agreement test (sequential vs 2- vs 8-worker) plus the
# clause-exchange and portfolio-attack suites, all under the race
# detector. rilvet ran repo-wide above; this stage is the targeted
# correctness gate for the racing machinery itself. The golden pins
# (solver trajectories, attack keys and traces) and the journal resume
# tests ride along: the search must stay bit-identical under the race
# build too.
go test -race -run 'ThreeWay|ClauseExchange|Portfolio|StatsAdd|CrossMode|Golden|JournalCompat' \
    ./internal/sat/ ./internal/attack/

echo "== portfolio gate: clause-exchange fuzz smoke =="
go test ./internal/sat/ -run='^$' -fuzz='^FuzzClauseExchange$' -fuzztime=10s

echo "== fuzz smoke (10s per parser/journal/stamp/audit target) =="
for target in FuzzParseBench FuzzParseBenchLax FuzzParseVerilog; do
    go test ./internal/netlist/ -run='^$' -fuzz="^${target}\$" -fuzztime=10s
done
go test ./internal/attack/ -run='^$' -fuzz='^FuzzJournalReplay$' -fuzztime=10s
go test ./internal/cnf/ -run='^$' -fuzz='^FuzzStampFixed$' -fuzztime=10s
go test ./internal/netlint/ -run='^$' -fuzz='^FuzzResilienceAnalyzers$' -fuzztime=10s
go test ./internal/golint/ -run='^$' -fuzz='^FuzzSuppressionParse$' -fuzztime=10s
for target in FuzzCacheKeyCanonical FuzzCanonicalJSONReference FuzzCacheEntryDecode; do
    go test ./internal/cache/ -run='^$' -fuzz="^${target}\$" -fuzztime=10s
done

echo "== netlint: checked-in benchmarks =="
go run ./cmd/netlint testdata/...

echo "== netlint: freshly locked circuit (full analyzer set incl. audit) =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/locker -in testdata/c17.bench -scheme ril -size 2x2 -blocks 1 \
    -seed 1 -out "$tmp/locked.bench" -keyout "$tmp/key.txt"
go run ./cmd/netlint -key "$tmp/key.txt" "$tmp/locked.bench"

echo "== netlint: resilience audit catches the planted weak fixture =="
if go run ./cmd/netlint -scan cmd/netlint/testdata/audit_redundant_scan.json \
    cmd/netlint/testdata/audit_redundant.bench > "$tmp/audit.out" 2>&1; then
    echo "ci: netlint passed the planted redundant-key fixture" >&2
    cat "$tmp/audit.out" >&2
    exit 1
fi
for want in 'key-const-prop' 'key-equivalence' 'removal-vulnerability' 'scan-exposure' \
    'effective key length 3 of 7'; do
    grep -q "$want" "$tmp/audit.out" || {
        echo "ci: audit output missing \"$want\":" >&2
        cat "$tmp/audit.out" >&2
        exit 1
    }
done
echo "ci: audit reports effective key length 3 of 7 on the planted fixture"

echo "== netlint: broken netlists must be rejected =="
cat > "$tmp/cycle.bench" <<'EOF'
INPUT(x)
OUTPUT(y)
y = AND(a, x)
a = OR(y, x)
EOF
if go run ./cmd/netlint "$tmp/cycle.bench" > "$tmp/cycle.out" 2>&1; then
    echo "ci: netlint accepted a cyclic netlist" >&2
    cat "$tmp/cycle.out" >&2
    exit 1
fi
grep -q 'comb-cycle' "$tmp/cycle.out" || {
    echo "ci: cycle not attributed to comb-cycle:" >&2
    cat "$tmp/cycle.out" >&2
    exit 1
}

cat > "$tmp/deadkey.bench" <<'EOF'
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
y = NOT(a)
EOF
if go run ./cmd/netlint "$tmp/deadkey.bench" > "$tmp/deadkey.out" 2>&1; then
    echo "ci: netlint accepted a dead key bit" >&2
    cat "$tmp/deadkey.out" >&2
    exit 1
fi
grep -q 'key-influence' "$tmp/deadkey.out" || {
    echo "ci: dead key bit not attributed to key-influence:" >&2
    cat "$tmp/deadkey.out" >&2
    exit 1
}

echo "== rilperf module tests under -race =="
# cmd/rilperf is a module of its own, so go test ./... above never
# reaches it, yet its tests call the library API the benchmark drives.
# The environment mirrors cmd/rilperf/run.sh.
(cd cmd/rilperf && GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off go test -race ./...)

echo "== rilperf correctness smoke =="
# Two rounds of each benchmark workload whose correctness gate is
# exact, on small inputs (a few seconds after the build). rilperf
# exits nonzero when any op fails its gate: for the attacks, the
# recovered key must unlock the circuit. attack-variants stays out:
# its AppSAT gate allows 2% output error over 1,024 patterns, while
# AppSAT stops once at most one of its 64 random queries is wrong, so
# a correct search change can move a gate miss onto the smoke's seed.
# The binary and its scratch state stay under the ignored .bench_build/.
for w in table1-solve tables-warm rild-jobs; do
    bash cmd/rilperf/run.sh --quick --workload "$w" > "$tmp/rilperf.out" 2>&1 || {
        echo "ci: rilperf quick $w run failed:" >&2
        cat "$tmp/rilperf.out" >&2
        exit 1
    }
done
echo "ci: rilperf quick runs passed every correctness gate"

echo "== kill-and-resume smoke =="
# A two-target checkpointed sweep: one quick target (locked c17) and
# one slow enough (~5s: quarter-scale c7552, two 8x8 blocks) that a
# SIGKILL at 2s lands mid-attack with DIPs already journaled. The
# resumed run must replay without re-querying journaled DIPs, and both
# targets' journals must end with a done record. If the machine is
# fast enough that the first run finishes before the kill, the resume
# degenerates to answering both targets from their done records — the
# journals must still end done.
go build -o "$tmp/satattack" ./cmd/satattack
go build -o "$tmp/benchgen" ./cmd/benchgen
go build -o "$tmp/locker" ./cmd/locker
go build -o "$tmp/nettool" ./cmd/nettool
"$tmp/benchgen" -name c7552 -scale 0.25 -out "$tmp/c7552.bench" >/dev/null
"$tmp/locker" -in "$tmp/c7552.bench" -scheme ril -size 8x8 -blocks 2 -seed 3 \
    -out "$tmp/slow.bench" -keyout "$tmp/slow.key" 2>/dev/null
"$tmp/locker" -in testdata/c17.bench -scheme ril -size 2x2 -blocks 1 -seed 17 \
    -out "$tmp/quick.bench" -keyout "$tmp/quick.key" 2>/dev/null
# Key-file smoke: locker's key, read back through the key-file codec,
# activates a circuit equivalent to c17; a key whose line 2 holds the
# bit I must fail the attack and name the line.
"$tmp/nettool" -in "$tmp/quick.bench" -bindkey "$tmp/quick.key" -equiv testdata/c17.bench \
    > "$tmp/bindkey.out" 2>&1 || true
grep -qx 'EQUIVALENT' "$tmp/bindkey.out" || {
    echo "ci: locker's key does not bind back to c17:" >&2
    cat "$tmp/bindkey.out" >&2
    exit 1
}
sed '2s/=.*/=I/' "$tmp/quick.key" > "$tmp/badbit.key"
if "$tmp/satattack" -locked "$tmp/quick.bench" -key "$tmp/badbit.key" > "$tmp/badbit.out" 2>&1; then
    echo "ci: satattack accepted a key bit that is neither 0 nor 1:" >&2
    cat "$tmp/badbit.out" >&2
    exit 1
fi
grep -q 'line 2' "$tmp/badbit.out" || {
    echo "ci: satattack's malformed-key error does not name line 2:" >&2
    cat "$tmp/badbit.out" >&2
    exit 1
}
echo "ci: locker's key binds back to c17; a malformed key bit fails naming its line"
# A target's DIP journal is a log of one {"crc":...,"rec":{"kind":...}}
# line per record: a header naming the circuit (the target's path),
# one dip record per oracle query, and a done record, always the last,
# once the attack has finished. journal_of DIR TARGET prints TARGET's
# journal in DIR; journal_done DIR TARGET succeeds when that journal's
# last record is done; journal_done_count DIR counts the two targets
# so.
journal_of() {
    grep -lF "\"circuit\":\"$2\"" "$1"/*.journal 2>/dev/null | head -n 1
}
journal_done() {
    j=$(journal_of "$1" "$2")
    [ -n "$j" ] && tail -n 1 "$j" | grep -qF '"rec":{"kind":"done"'
}
journal_done_count() {
    n=0
    for target in quick slow; do
        if journal_done "$1" "$tmp/$target.bench"; then
            n=$((n + 1))
        fi
    done
    echo "$n"
}
timeout -s KILL 2s "$tmp/satattack" \
    -locked "$tmp/quick.bench,$tmp/slow.bench" -key "$tmp/quick.key,$tmp/slow.key" \
    -timeout 120s -jobs 2 -checkpoint-dir "$tmp/ckpt" >/dev/null 2>&1 || true
"$tmp/satattack" \
    -locked "$tmp/quick.bench,$tmp/slow.bench" -key "$tmp/quick.key,$tmp/slow.key" \
    -timeout 120s -jobs 2 -checkpoint-dir "$tmp/ckpt" -resume > "$tmp/resume.out" 2>&1 || {
    echo "ci: resumed sweep failed:" >&2
    cat "$tmp/resume.out" >&2
    exit 1
}
done_count=$(journal_done_count "$tmp/ckpt")
if [ "$done_count" != 2 ]; then
    echo "ci: journals incomplete after resume ($done_count/2 done):" >&2
    cat "$tmp/resume.out" >&2
    exit 1
fi
echo "ci: kill-and-resume journals complete (2/2 done)"
# Single-target leg: a checkpointed run of the quick target ends its
# journal done, and a resumed run answers from the done record: zero
# oracle queries, every DIP replayed from the journal.
one_target() {
    "$tmp/satattack" -locked "$tmp/quick.bench" -key "$tmp/quick.key" \
        -timeout 120s -checkpoint-dir "$tmp/ckpt_one" "$@" > "$tmp/one.out" 2>&1 || {
        echo "ci: single-target run${*:+ with $*} failed:" >&2
        cat "$tmp/one.out" >&2
        exit 1
    }
    journal_done "$tmp/ckpt_one" "$tmp/quick.bench" || {
        echo "ci: single target's journal does not end done after the run${*:+ with $*}:" >&2
        cat "$tmp/one.out" >&2
        exit 1
    }
}
one_target
one_target -resume
grep -qE 'oracle queries: 0 \([1-9][0-9]* replayed from journal\)' "$tmp/one.out" || {
    echo "ci: resumed single target did not answer from its journal:" >&2
    cat "$tmp/one.out" >&2
    exit 1
}
echo "ci: single target's journal ends done, and -resume replayed it with 0 oracle queries"

echo "== SIGINT smoke =="
# The same two targets, interrupted by SIGINT at 2s instead of killed:
# satattack must exit nonzero naming the interruption, and the slow
# target's journal must hold no done record — an interrupted attack is
# not the paper's ∞. The resumed run must then finish the sweep. A
# machine fast enough to finish both targets inside 2s skips the
# interruption checks.
if timeout -s INT 2s "$tmp/satattack" \
    -locked "$tmp/quick.bench,$tmp/slow.bench" -key "$tmp/quick.key,$tmp/slow.key" \
    -timeout 120s -jobs 2 -checkpoint-dir "$tmp/ckpt_int" >/dev/null 2> "$tmp/int.err"; then
    echo "ci: sweep finished before SIGINT; interruption checks skipped"
else
    grep -q 'interrupted' "$tmp/int.err" || {
        echo "ci: SIGINT exit did not report the interruption:" >&2
        cat "$tmp/int.err" >&2
        exit 1
    }
    slow_journal=$(journal_of "$tmp/ckpt_int" "$tmp/slow.bench")
    if [ -n "$slow_journal" ] && grep -qF '"rec":{"kind":"done"' "$slow_journal"; then
        echo "ci: interrupted slow target's journal holds a done record:" >&2
        cat "$tmp/int.err" >&2
        exit 1
    fi
fi
"$tmp/satattack" \
    -locked "$tmp/quick.bench,$tmp/slow.bench" -key "$tmp/quick.key,$tmp/slow.key" \
    -timeout 120s -jobs 2 -checkpoint-dir "$tmp/ckpt_int" -resume > "$tmp/int_resume.out" 2>&1 || {
    echo "ci: sweep resumed after SIGINT failed:" >&2
    cat "$tmp/int_resume.out" >&2
    exit 1
}
done_count=$(journal_done_count "$tmp/ckpt_int")
if [ "$done_count" != 2 ]; then
    echo "ci: journals incomplete after SIGINT resume ($done_count/2 done):" >&2
    cat "$tmp/int_resume.out" >&2
    exit 1
fi
echo "ci: SIGINT exit reported the interruption; resumed journals complete (2/2 done)"

echo "== result-cache gate: cold vs warm report sweep (BENCH_9.json) =="
# The same SAT-runtime sweep (c7552 synthesized at scale 0.05, 4 block
# counts x 3 sizes = 12 cells) runs twice against one cache directory.
# Its single 8x8 and 8x8x8 blocks give the cold run real solver work,
# a few hundred milliseconds on 2 vCPUs, so the ratio measures the
# cache and not process start-up; the larger counts cannot host 8x8
# blocks and render n/a. The warm run must print byte-identical
# tables, be answered entirely from checksummed cache entries (12
# hits, 0 misses) and finish at least 5x faster than the cold run.
go build -o "$tmp/rilbench" ./cmd/rilbench
cache_dir="$tmp/rilcache"
bench_cmd() {
    "$tmp/rilbench" -exp satruntime -circuit c7552 -scale 0.05 \
        -counts 1,2,3,4 -timeout 10s -seed 3 -cache-dir "$cache_dir" \
        > "$tmp/cache_$1.out" 2> "$tmp/cache_$1.err"
}
t0=$(date +%s%N)
bench_cmd cold
t1=$(date +%s%N)
bench_cmd warm
t2=$(date +%s%N)
cold_ms=$(( (t1 - t0) / 1000000 ))
warm_ms=$(( (t2 - t1) / 1000000 ))
[ "$warm_ms" -gt 0 ] || warm_ms=1
cmp -s "$tmp/cache_cold.out" "$tmp/cache_warm.out" || {
    echo "ci: warm sweep output differs from cold sweep output" >&2
    diff "$tmp/cache_cold.out" "$tmp/cache_warm.out" >&2 || true
    exit 1
}
# "rilbench: cache: H hits, M misses (I invalidated), ..." on stderr.
set -- $(awk -F'cache: ' '/rilbench: cache:/ { print $2 }' "$tmp/cache_warm.err" \
    | awk '{ gsub(",", ""); print $1, $3 }')
warm_hits=${1:-0}
warm_misses=${2:-mis}
if [ "$warm_hits" != 12 ] || [ "$warm_misses" != 0 ]; then
    echo "ci: warm sweep was not answered from cache ($warm_hits hits, $warm_misses misses):" >&2
    cat "$tmp/cache_warm.err" >&2
    exit 1
fi
speedup=$(awk -v c="$cold_ms" -v w="$warm_ms" 'BEGIN { printf "%.1f", c / w }')
printf '{\n  "name": "satruntime-c7552-cache",\n  "cold_ms": %s,\n  "warm_ms": %s,\n  "speedup": %s,\n  "warm_hits": %s,\n  "warm_misses": %s,\n  "hit_rate": 1.0\n}\n' \
    "$cold_ms" "$warm_ms" "$speedup" "$warm_hits" "$warm_misses" > "$ci_out/BENCH_9.json"
echo "ci: cold ${cold_ms}ms, warm ${warm_ms}ms (${speedup}x, ${warm_hits}/12 hits) -> $ci_out/BENCH_9.json"
ok=$(awk -v c="$cold_ms" -v w="$warm_ms" 'BEGIN { print (c >= 5 * w) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ci: warm sweep only ${speedup}x faster than cold (gate: 5x)" >&2
    exit 1
fi

# Table V: each (attack, scheme) cell that queries an oracle or calls
# the solver is a cached sweep job, so a warm run against the cache the
# cold run filled prints the same bytes with 0 misses, one hit per
# cold store.
t5_cache="$tmp/t5cache"
t5_cmd() {
    "$tmp/rilbench" -exp table5 -scale 0.12 -timeout 500ms -seed 1 \
        -cache-dir "$t5_cache" > "$tmp/t5_$1.out" 2> "$tmp/t5_$1.err"
}
# "rilbench: cache: H hits, M misses (I invalidated), S stores ..." ->
# "H M S".
t5_summary() {
    awk -F'cache: ' '/rilbench: cache:/ { print $2 }' "$tmp/t5_$1.err" \
        | awk '{ gsub(",", ""); print $1, $3, $7 }'
}
t5_cmd cold
t5_cmd warm
cmp -s "$tmp/t5_cold.out" "$tmp/t5_warm.out" || {
    echo "ci: warm Table V differs from cold Table V" >&2
    diff "$tmp/t5_cold.out" "$tmp/t5_warm.out" >&2 || true
    exit 1
}
set -- $(t5_summary cold)
t5_stores=${3:-0}
set -- $(t5_summary warm)
t5_hits=${1:-0}
t5_misses=${2:-mis}
if [ "$t5_hits" = 0 ] || [ "$t5_hits" != "$t5_stores" ] || [ "$t5_misses" != 0 ]; then
    echo "ci: warm Table V was not answered from cache ($t5_hits hits, $t5_misses misses, $t5_stores cold stores):" >&2
    cat "$tmp/t5_cold.err" "$tmp/t5_warm.err" >&2
    exit 1
fi
echo "ci: warm Table V byte-identical, ${t5_hits}/${t5_stores} hits, 0 misses"

echo "== rild daemon gate: load, metrics, drain =="
# The service daemon, built with the race detector, is flooded with
# 200 c17-class attack jobs by its own load harness: every job must
# reach a terminal state (0 lost, 0 duplicated), /metrics must be
# well-formed Prometheus text, a SIGTERM drain must exit 0 and leave
# no temp litter in the state directory, and rilvet must report zero
# findings over the daemon's packages specifically.
go run ./cmd/rilvet ./internal/serve/ ./cmd/rild/
go build -race -o "$tmp/rild" ./cmd/rild
rild_state="$tmp/rild-state"
"$tmp/rild" -state "$rild_state" -addr 127.0.0.1:0 -default-timeout 60s \
    > "$tmp/rild.out" 2> "$tmp/rild.err" &
rild_pid=$!
# The listening line doubles as the readiness signal.
i=0
while ! grep -q "rild: listening on " "$tmp/rild.out" 2>/dev/null; do
    kill -0 "$rild_pid" 2>/dev/null || {
        echo "ci: rild exited before listening" >&2
        cat "$tmp/rild.err" >&2
        exit 1
    }
    i=$((i + 1))
    [ "$i" -le 300 ] || { echo "ci: rild did not start in 30s" >&2; exit 1; }
    sleep 0.1
done
rild_addr=$(sed -n 's/^rild: listening on //p' "$tmp/rild.out" | head -n 1)
"$tmp/rild" -load 200 -load-concurrency 16 -addr "$rild_addr" \
    > "$tmp/rild_load.out" 2> "$tmp/rild_load.err" || {
    echo "ci: rild load harness failed:" >&2
    cat "$tmp/rild_load.out" "$tmp/rild_load.err" >&2
    kill -9 "$rild_pid" 2>/dev/null || true
    exit 1
}
grep -q "0 lost, 0 duplicated" "$tmp/rild_load.out" || {
    echo "ci: rild load report is missing the zero-loss invariant:" >&2
    cat "$tmp/rild_load.out" >&2
    kill -9 "$rild_pid" 2>/dev/null || true
    exit 1
}
sed -n 's/^rild: //p' "$tmp/rild_load.out"
# /metrics: every line is a comment or "name[{labels}] value", and the
# core daemon series must be present.
curl -sf "http://$rild_addr/metrics" > "$tmp/rild_metrics.txt" || {
    echo "ci: /metrics fetch failed" >&2
    kill -9 "$rild_pid" 2>/dev/null || true
    exit 1
}
awk '
    /^#/ { next }
    /^$/ { next }
    !/^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ {
        print "ci: malformed metrics line: " $0 > "/dev/stderr"
        bad = 1
    }
    END { exit bad }
' "$tmp/rild_metrics.txt"
for m in rild_up rild_queue_depth rild_jobs_accepted_total rild_jobs_done_total rild_oracle_queries_total; do
    grep -q "^$m[ {]" "$tmp/rild_metrics.txt" || {
        echo "ci: /metrics is missing $m" >&2
        exit 1
    }
done
accepted=$(sed -n 's/^rild_jobs_accepted_total //p' "$tmp/rild_metrics.txt")
done_jobs=$(sed -n 's/^rild_jobs_done_total //p' "$tmp/rild_metrics.txt")
[ "$accepted" = 200 ] && [ "$done_jobs" = 200 ] || {
    echo "ci: daemon counters disagree with the load (accepted=$accepted done=$done_jobs, want 200/200)" >&2
    exit 1
}
kill -TERM "$rild_pid"
wait "$rild_pid" || {
    echo "ci: rild exited nonzero after SIGTERM drain:" >&2
    cat "$tmp/rild.err" >&2
    exit 1
}
leftover=$(find "$rild_state" -name '*.tmp' | wc -l)
[ "$leftover" = 0 ] || {
    echo "ci: drained rild left $leftover temp file(s) in $rild_state" >&2
    exit 1
}
echo "ci: rild served 200/200 jobs, metrics well-formed, drain clean"

echo "ci: all checks passed"
