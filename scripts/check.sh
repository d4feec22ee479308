#!/usr/bin/env bash
# Repository gate: formatting, lints, tests and the sampsim lint pass.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space for the reports and daemon logs the smokes below write.
perf_report="$(mktemp)"
serve_dir="$(mktemp -d)"
trap 'rm -rf "$perf_report" "$serve_dir"' EXIT

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings denied)"
# The `sampsim` bin of sampsim-cli and the root `sampsim` lib both write
# target/doc/sampsim. One invocation runs the two rustdoc jobs in
# parallel, and they can delete each other's output, so the bin is
# documented on its own, after everything else.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude sampsim-cli
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p sampsim-cli

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo test (property suite)"
cargo test -q -p sampsim --features property-tests --test property_tests

echo "==> sampsim lint --deny-warnings"
# Small scale keeps the suite-wide workload build fast; findings do not
# depend on scale (run-length rules are proportionality checks).
cargo run --release -q -p sampsim-cli -- lint --scale 0.01 --deny-warnings

echo "==> sampsim lint --format json (schema check)"
# Every diagnostic line must conform to the documented JSON shape. The
# maxk-0 config guarantees at least one diagnostic flows through; lint
# exits 1 on findings by design, so only exit codes >= 2 are failures.
{ cargo run --release -q -p sampsim-cli -- lint omnetpp_s --scale 0.002 --maxk 0 --format json \
    || [ "$?" -eq 1 ]; } \
    | cargo run --release -q -p sampsim-analyze --example validate_lint_json

echo "==> sampsim audit (dynamic differential, full suite)"
# The executor oracle: profiles every benchmark and checks the dynamic
# BBVs and slice cursors against bounds derived statically from the
# schedule. A clean executor can never fire these.
cargo run --release -q -p sampsim-cli -- audit --scale 0.002 --deny-warnings 2> /dev/null

echo "==> sampsim audit --artifacts (shipped .art summaries)"
# The committed summaries pin the scale-0.01 builds; any drift in the
# generators or the bounds derivation fails here.
cargo run --release -q -p sampsim-cli -- audit --scale 0.01 --deny-warnings --artifacts artifacts

echo "==> sampsim serve smoke (daemon reply == run stdout)"
# Starts the daemon on an ephemeral port, sends one request, checks the
# reply is byte-identical to `sampsim run` stdout, then shuts it down
# gracefully and requires exit code 0.
cargo build --release -q -p sampsim-cli
sampsim_bin="target/release/sampsim"
bench_args=(omnetpp_s --scale 0.002 --maxk 6)
"$sampsim_bin" serve --addr 127.0.0.1:0 --cache-dir "$serve_dir/cache" --jobs 2 \
    > "$serve_dir/announce" 2> /dev/null &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^sampsim-serve listening on //p' "$serve_dir/announce")"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve smoke: daemon never announced its address" >&2; exit 1; }
# The daemon and the fleet execute requests serially. An explicit --jobs 2
# makes `run` profile with the two-stage walk on every runner, so both
# replies are compared with it (`auto` on a 1-CPU runner is serial too).
"$sampsim_bin" run "${bench_args[@]}" --jobs 2 > "$serve_dir/direct.json" 2> /dev/null
"$sampsim_bin" request "${bench_args[@]}" --addr "$addr" > "$serve_dir/reply.json" 2> /dev/null
cmp "$serve_dir/direct.json" "$serve_dir/reply.json" \
    || { echo "serve smoke: served reply != run stdout" >&2; exit 1; }
"$sampsim_bin" request --stats --addr "$addr" > /dev/null
"$sampsim_bin" request --shutdown --addr "$addr" > /dev/null
wait "$serve_pid" || { echo "serve smoke: daemon exited non-zero" >&2; exit 1; }

echo "==> sampsim fleet smoke (2-shard routed reply == run stdout)"
# Spins a 2-shard fleet on an ephemeral port, routes one request through
# the router, checks the reply is byte-identical to `sampsim run`
# stdout, queries fleet-wide stats, then shuts the whole topology down
# gracefully and requires exit code 0.
"$sampsim_bin" fleet --shards 2 --addr 127.0.0.1:0 --jobs 2 \
    > "$serve_dir/fleet_announce" 2> /dev/null &
fleet_pid=$!
fleet_addr=""
for _ in $(seq 1 100); do
    fleet_addr="$(sed -n 's/^sampsim-fleet (2 shards) listening on //p' "$serve_dir/fleet_announce")"
    [ -n "$fleet_addr" ] && break
    sleep 0.1
done
[ -n "$fleet_addr" ] || { echo "fleet smoke: router never announced its address" >&2; exit 1; }
"$sampsim_bin" request "${bench_args[@]}" --addr "$fleet_addr" > "$serve_dir/fleet_reply.json" 2> /dev/null
cmp "$serve_dir/direct.json" "$serve_dir/fleet_reply.json" \
    || { echo "fleet smoke: routed reply != run stdout" >&2; exit 1; }
"$sampsim_bin" request --stats --addr "$fleet_addr" | grep -q '"shards":2' \
    || { echo "fleet smoke: stats reply lacks fleet fields" >&2; exit 1; }
"$sampsim_bin" request --shutdown --addr "$fleet_addr" > /dev/null
wait "$fleet_pid" || { echo "fleet smoke: fleet exited non-zero" >&2; exit 1; }

echo "==> sampsim compare smoke (all strategies vs whole-program truth)"
# Quick-scale cross-strategy study on one benchmark, then validate the
# report against the sampsim-compare/v1 schema AND the strategy registry
# (the validator fails when a registered strategy is missing a row).
# The --jobs 2 report, where truth has one worker and everything else
# the other, must be byte-identical to the serial one.
compare_report="$serve_dir/compare.json"
"$sampsim_bin" compare omnetpp_s --scale 0.002 --maxk 6 --reps 2 --jobs 1 \
    -o "$compare_report" > /dev/null 2> /dev/null
"$sampsim_bin" compare --validate "$compare_report"
"$sampsim_bin" compare omnetpp_s --scale 0.002 --maxk 6 --reps 2 --jobs 2 \
    -o "$serve_dir/compare_jobs2.json" > /dev/null 2> /dev/null
cmp "$compare_report" "$serve_dir/compare_jobs2.json" \
    || { echo "compare smoke: --jobs 2 report != --jobs 1 report" >&2; exit 1; }
# Belt and braces against registry drift: every strategy the CLI itself
# advertises in its usage text must have a row in the report, so adding a
# strategy to the CLI without teaching `compare` about it fails loudly.
cli_strategies="$("$sampsim_bin" help | sed -n '/one of:/{n;s/;.*//;s/,/ /g;p;}')"
[ -n "$cli_strategies" ] \
    || { echo "compare smoke: could not read the strategy list from 'sampsim help'" >&2; exit 1; }
for name in $cli_strategies; do
    grep -q "\"strategy\":\"$name\"" "$compare_report" \
        || { echo "compare smoke: CLI strategy '$name' missing from the compare report" >&2; exit 1; }
done

echo "==> sampsim plan smoke (static planner, every advertised strategy)"
# Planning is pure static analysis: for every strategy the CLI
# advertises, render a plan, validate it against the sampsim-plan/v1
# schema, and check the plan names the strategy it was asked for. Reuses
# the advertised-strategy list extracted above so a strategy added to
# the CLI without a working planner fails loudly.
for name in $cli_strategies; do
    plan_report="$serve_dir/plan-$name.json"
    "$sampsim_bin" plan omnetpp_s --scale 0.002 --maxk 6 --strategy "$name" \
        -o "$plan_report" > /dev/null 2> /dev/null
    "$sampsim_bin" plan --validate "$plan_report"
    grep -q "\"strategy\":\"$name\"" "$plan_report" \
        || { echo "plan smoke: plan for '$name' does not name it" >&2; exit 1; }
done
# The linter's rule catalogue must answer for the planner's soundness
# rules (the docs drift test pins the full registry; this pins the CLI
# plumbing end to end).
"$sampsim_bin" lint --explain SA140 > /dev/null
"$sampsim_bin" lint --explain SA145 > /dev/null
"$sampsim_bin" lint --explain SA150 > /dev/null

echo "==> sampsim figure smoke (memo: cold == warm, no .art entries)"
# Renders one suite exhibit twice into a scratch memo: the cold run
# computes both xz benchmarks, the warm run reads them back, and the two
# outputs must be byte-identical. The memo holds serve disk-tier `.bin`
# entries only; an `.art` file there would look like a shipped audit
# summary.
figure_dir="$serve_dir/figure-memo"
for run in cold warm; do
    "$sampsim_bin" figure table2 xz --scale 0.002 --jobs 2 --artifacts "$figure_dir" \
        > "$serve_dir/figure-$run.txt" 2> /dev/null
done
cmp "$serve_dir/figure-cold.txt" "$serve_dir/figure-warm.txt" \
    || { echo "figure smoke: warm output != cold output" >&2; exit 1; }
[ -z "$(find "$figure_dir" -name '*.art')" ] \
    || { echo "figure smoke: the memo holds .art files" >&2; exit 1; }

echo "==> sampsim figure smoke (non-suite exhibit: --jobs 1 == --jobs 2, one memo)"
# A non-suite exhibit passes --jobs to every stage it measures. The
# --jobs 2 run reads the whole Table I walk the --jobs 1 run stored in
# the shared memo, and must print the same bytes. Scale 0.02, not 0.002:
# at 0.002 every row saturates (100.00 cold and checkpointed, 0.00
# self-replay), so cmp could not see a replay that depends on --jobs.
warmup_dir="$serve_dir/warmup-memo"
for jobs in 1 2; do
    "$sampsim_bin" figure ablation_warmup --scale 0.02 --jobs "$jobs" \
        --artifacts "$warmup_dir" > "$serve_dir/warmup-jobs$jobs.txt" 2> /dev/null
done
cmp "$serve_dir/warmup-jobs1.txt" "$serve_dir/warmup-jobs2.txt" \
    || { echo "figure smoke: ablation_warmup --jobs 2 != --jobs 1" >&2; exit 1; }

echo "==> sampsim refusals (a flag the command or exhibit never reads exits 2)"
# fig3a sweeps MaxK and fig3b the slice size; compare runs every
# strategy, plan runs nothing and serve takes its settings from each
# request. Each case ends in a flag that its exhibit or command never
# reads, and must exit 2 with an empty stdout before any simulation:
# serve never binds, so it announces no address (the timeout stops a
# daemon that serves instead).
for refused in "figure fig3a --scale 0.002 --artifacts $figure_dir --maxk 6" \
    "figure fig3b --scale 0.002 --artifacts $figure_dir --slice 40" \
    "compare omnetpp_s --scale 0.002 --strategy rss" \
    "plan omnetpp_s --scale 0.002 --jobs 2" \
    "serve --addr 127.0.0.1:0 --maxk 6"; do
    code=0
    # shellcheck disable=SC2086 # the command and its flags are several words
    timeout 60 "$sampsim_bin" $refused > "$serve_dir/refused.out" 2> /dev/null || code=$?
    [ "$code" -eq 2 ] \
        || { echo "refusals: '$refused' exited $code, not 2" >&2; exit 1; }
    [ ! -s "$serve_dir/refused.out" ] \
        || { echo "refusals: '$refused' printed to stdout" >&2; exit 1; }
done

echo "==> sampsim run at MaxK 35 (the full BIC sweep: --jobs 1 == --jobs 3)"
# Every smoke above runs MaxK 6 on 0.002-scale inputs. 503.bwaves_r at
# scale 0.01 has 25,601 slices, so the default MaxK 35 scores a
# subsample and the sweep fans out 70 (k, restart) items; the output
# must not depend on how they are spread over workers.
for jobs in 1 3; do
    "$sampsim_bin" run bwaves_r --scale 0.01 --jobs "$jobs" \
        > "$serve_dir/bwaves-jobs$jobs.json" 2> /dev/null
done
cmp "$serve_dir/bwaves-jobs1.json" "$serve_dir/bwaves-jobs3.json" \
    || { echo "run smoke: bwaves_r --jobs 3 != --jobs 1" >&2; exit 1; }

echo "==> sampsim figure at scale 1.0 (three benchmarks reprint their docs/results rows)"
# docs/results was printed at scale 1.0 (docs/run_figures.sh), and every
# step above runs at scale 0.02 or below, where slices are too short for
# the paper's regime. Three benchmarks' rows of six exhibits are re-run
# at full scale into one scratch memo (each benchmark's first exhibit
# computes it, the other five read it back) and must equal the committed
# rows cell for cell, a missing row on either side included. Runs of
# spaces are squeezed: a table filtered to one benchmark has a narrower
# first column.
# bench_rows NAME: the rows of the table text on stdin that belong to
# NAME, i.e. each row whose first cell is NAME and the rows with an
# empty first cell that continue it (cpi_stacks' sampled row).
bench_rows() {
    awk -F'|' -v name="$1" '
        NF > 1 { first = $1; gsub(/ /, "", first) }
        NF > 1 && first == name { keep = 1; print; next }
        NF > 1 && first == "" && keep { print; next }
        { keep = 0 }' | tr -s ' '
}
for bench in 505.mcf_r 623.xalancbmk_s 503.bwaves_r; do
    for fig in table2 fig7 fig8 fig10 fig12 cpi_stacks; do
        "$sampsim_bin" figure "$fig" "$bench" --scale 1 --jobs 2 \
            --artifacts "$serve_dir/scale1-memo" 2> /dev/null \
            | bench_rows "$bench" > "$serve_dir/scale1-got.txt"
        bench_rows "$bench" < "docs/results/$fig.txt" > "$serve_dir/scale1-want.txt"
        [ -s "$serve_dir/scale1-want.txt" ] && [ -s "$serve_dir/scale1-got.txt" ] \
            || { echo "scale 1.0: $fig has no $bench row" >&2; exit 1; }
        diff "$serve_dir/scale1-want.txt" "$serve_dir/scale1-got.txt" \
            || { echo "scale 1.0: $fig rows of $bench != docs/results/$fig.txt" >&2; exit 1; }
    done
done

echo "==> e2e-bench --digests (every output the benchmark checks is unchanged)"
# The end-to-end benchmark pins an FNV-64 digest of every study document,
# compare report and served reply its workloads produce; a change that
# moves one changes what the benchmark measures. --locked fails the step
# if Cargo would rewrite the benchmark's own Cargo.lock.
cargo run --release -q --offline --locked --manifest-path src/bin/e2e-bench/Cargo.toml \
    -- --digests > "$serve_dir/digests.txt"
grep -v '^#' src/bin/e2e-bench/digests.txt | diff - "$serve_dir/digests.txt" \
    || { echo "digests: an e2e-bench output no longer matches digests.txt" >&2; exit 1; }

echo "==> sampsim perf --quick (kernel smoke + regression gate)"
# Times the optimized kernels against their naive references at smoke
# sizes — every timed pair is asserted identical — and gates the
# size-normalized rates against the committed baseline: any shared
# metric more than 10% slower fails. It runs last because its timings
# depend on the host (the baseline was measured on another machine), and
# under `set -e` a slow host must not skip the functional smokes above.
cargo run --release -q -p sampsim-cli -- perf --quick -o "$perf_report" \
    --baseline BENCH_kernels.json > /dev/null
cargo run --release -q -p sampsim-cli -- perf --validate "$perf_report"
cargo run --release -q -p sampsim-cli -- perf --validate BENCH_kernels.json
# The committed full-run baseline must hold the paper-grade cache bound:
# the packed probe at or below 15 ns/access.
python3 - <<'EOF'
import json
with open("BENCH_kernels.json") as f:
    report = json.load(f)
cache = next(k for k in report["kernels"] if k["name"] == "cache_access_rw")
ns = cache["details"]["ns_per_access"]
assert ns <= 15.0, f"committed cache probe is {ns} ns/access (bound: 15)"
EOF

echo "all checks passed"
