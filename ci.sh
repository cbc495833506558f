#!/bin/sh
# Local CI gate: formatting, lints as errors, full test suite, bench smoke.
set -eux

# Polls `amsfi status` until the coordinator started last ($serve_pid)
# answers on 127.0.0.1:<port>; after 10 s it is killed and the gate fails.
# Usage: wait_for_coordinator <port> <what came up, for the message>
wait_for_coordinator() {
    i=0
    until ./target/release/amsfi status "127.0.0.1:$1" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "$2 never came up on 127.0.0.1:$1" >&2
            kill "$serve_pid" 2>/dev/null || true
            exit 1
        fi
        sleep 0.2
    done
}

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# API docs build without warnings: a broken or private intra-doc link, or a
# unit in brackets parsed as one, fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
cargo test -q

# PR 3 guard-overhead bench: guarded vs unguarded fast-PLL sweep, emitting
# results/bench/BENCH_pr3.json; asserts the robustness layer costs <= 5%
# on the hot path.
cargo build --release -p amsfi-bench --bin pr3_guard_bench
./target/release/pr3_guard_bench

# PR 4 telemetry CLI e2e: a guarded run with --events/--metrics and an
# `amsfi report` journal+events join (the event stream and the Prometheus
# dump themselves are checked in-process by the tier-1 test
# `event_stream_accounts_for_every_case`).
cargo build --release -p amsfi-serve --bin amsfi
tmp=$(mktemp -d)
./target/release/amsfi run pll-digital --limit 6 --checkpoint \
    --max-steps 100000000 --min-dt-fs 1 --quarantine \
    --journal "$tmp/j.log" --events "$tmp/e.jsonl" --metrics "$tmp/m.prom" \
    --progress-secs 1
test -s "$tmp/e.jsonl"
test -s "$tmp/m.prom"
grep -q amsfi_solver_steps_total "$tmp/m.prom"
grep -q amsfi_stage_latency_microseconds "$tmp/m.prom"
# A couple of dozen events into an 8192-slot queue: any drop means the
# queue is broken.
grep -qx 'amsfi_events_dropped_total 0' "$tmp/m.prom"
./target/release/amsfi report "$tmp/j.log" --events "$tmp/e.jsonl"
rm -rf "$tmp"

# PR 4 telemetry-overhead bench: Telemetry::disabled() vs fully
# instrumented (metrics + JSONL events) fast-PLL sweep, emitting
# results/bench/BENCH_pr4.json; asserts telemetry costs <= 5%.
cargo build --release -p amsfi-bench --bin pr4_telemetry_bench
./target/release/pr4_telemetry_bench

# PR 5 early-abort bench: checkpointed vs checkpointed + --early-abort on
# the pll-sweep / pll-digital / cpu catalog campaigns at 8 workers, plus
# pll-digital at 1 worker (measured, not gated: an observed fork neither
# leads nor follows), emitting results/bench/BENCH_pr5.json (paired
# trimmed-mean speedups, per-campaign oracle ceilings, followed counts);
# asserts (class, onset, affected) verdicts are byte-identical and early
# abort is never slower at 8 workers.
cargo build --release -p amsfi-bench --bin pr5_early_abort_bench
./target/release/pr5_early_abort_bench

# PR 6 CLI e2e: a real `amsfi serve` coordinator on 127.0.0.1 drains
# pll-sweep through two `amsfi worker` processes, `amsfi status` answers
# over the wire, the merged journal reproduces `amsfi run` byte-for-byte,
# and `amsfi merge` across mismatched campaigns exits with code 4.
tmp=$(mktemp -d)
port=17171
./target/release/amsfi serve --bind 127.0.0.1:$port --campaign pll-sweep \
    --shards 3 --until-drained --journal-dir "$tmp/journals" \
    --metrics "$tmp/serve.prom" &
serve_pid=$!
wait_for_coordinator $port "amsfi serve"
./target/release/amsfi status 127.0.0.1:$port
./target/release/amsfi worker 127.0.0.1:$port --exit-when-done --name ci-w1 &
w1=$!
./target/release/amsfi worker 127.0.0.1:$port --exit-when-done --name ci-w2
wait $w1
wait $serve_pid
grep -q amsfi_serve_cases_merged_total "$tmp/serve.prom"
./target/release/amsfi run pll-sweep --out "$tmp/single" --progress-secs 0
./target/release/amsfi merge "$tmp/journals"/*.journal --out "$tmp/merged"
cmp "$tmp/single/cases.csv" "$tmp/merged/cases.csv"
./target/release/amsfi run pll-digital --limit 4 --journal "$tmp/other.journal" \
    --progress-secs 0
set +e
./target/release/amsfi merge "$tmp/journals"/*.journal "$tmp/other.journal"
rc=$?
set -e
test "$rc" -eq 4
rm -rf "$tmp"

# Differential fuzzer, widened-window run: random netlists (gate DAGs plus
# the sequential cell library) + fault lists (clock-line saboteurs,
# edge-snapped SET pulses, stuck-ats, mutant flips inside every cell) run
# scalar and with --batch at 1 and 3 workers, then as word groups straight
# on the kernel (the word machine handed a scalar simulator advanced to the
# first injection instant and to a random instant before it); any byte
# difference fails.
AMSFI_FUZZ_SEEDS=400 cargo test -q -p amsfi-bench --release --test batch_diff

# The word kernel's idle-drive rule against a twin that queues every drive:
# random per-lane drive scripts (value, delay 0 or 1 ns, transport, order
# in one eval, hand-over instant) must leave planes, golden trace and the
# lanes equal to golden the same at every stop.
AMSFI_FUZZ_SEEDS=400 cargo test -q -p amsfi-digital --release --lib \
    word::tests::idle_rule_word_machines_match_their_unskipped_twins

# The fork path's differential fuzzer: random loop-filter strikes and SEUs
# on the fast PLL with its payload, --checkpoint at 1 and 3 workers (forks
# off the one golden ladder, concurrently) against from-scratch runs; any
# cases.csv byte difference fails.
AMSFI_FUZZ_SEEDS=400 cargo test -q -p amsfi-engine --release --test fork_equivalence \
    forked_pll_runs_equal_scratch_runs

# The same oracle on the one cell the fuzzer's netlists do not hold: the
# bit-sliced word CPU against the scalar one, lane by lane, over random
# programs (all eight opcodes), upsets, forced program counters and reset
# pulses.
AMSFI_CPU_PROP_CASES=400 cargo test -q -p amsfi-circuits --release --test props word_cpu

# The online classifier fed a word lane's toggles seals at the watermark,
# and with the outcome, that the one fed the lane's trace does: the core
# property, widened to 3 000 random cases.
AMSFI_FUZZ_SEEDS=3000 cargo test -q -p amsfi-core --release --test props \
    toggle_fed_seal_equals_trace_fed_seal

# --batch CLI e2e. Both batch campaigns journal case-for-case what the
# scalar run journals, and so does cpu under a step cap no case reaches
# (every lane's budget is then armed, so the word machine's shared step
# counter runs). Both must really have taken the batch path, every lane
# booked from the word machine: a silent fall-back to scalar — of a group
# or of one lane — is a slowdown that byte identity cannot see, so their
# event streams have to hold batch spans and no fallback of either kind. A
# campaign without a batch spec falls back whole, says so once, and
# journals what the plain run does. `--word` is gone (exit 64: usage).
tmp=$(mktemp -d)
batch_equals_plain() { # <tag> <campaign and options...>
    tag=$1
    shift
    ./target/release/amsfi run "$@" --journal "$tmp/$tag.plain" --progress-secs 0
    ./target/release/amsfi run "$@" --batch --journal "$tmp/$tag.batch" \
        --events "$tmp/$tag.jsonl" --progress-secs 0
    sort "$tmp/$tag.plain" >"$tmp/$tag.plain.sorted"
    sort "$tmp/$tag.batch" >"$tmp/$tag.batch.sorted"
    cmp "$tmp/$tag.plain.sorted" "$tmp/$tag.batch.sorted"
}
batch_equals_plain cpu cpu
batch_equals_plain cpu-set cpu-set --workers 2
batch_equals_plain cpu-guarded cpu --max-steps 100000000
for tag in cpu cpu-set; do
    grep -q '"kind":"span","name":"batch"' "$tmp/$tag.jsonl"
    test "$(grep -c '"name":"fallback"' "$tmp/$tag.jsonl")" -eq 0
    test "$(grep -c '"name":"lane_fallback"' "$tmp/$tag.jsonl")" -eq 0
done
# cpu-set's washed-out pulses seal within nanoseconds, and a sealed lane
# takes its group's next case: two workers' groups of 126 must report
# refills. A refill path that silently stops firing is a slowdown byte
# identity cannot see either.
grep '"kind":"span","name":"batch"' "$tmp/cpu-set.jsonl" | grep -q '"refills":"[1-9]'
# A resumed run's report merges the journal's records with the cases it
# re-runs, moved in case order: cut a complete batch journal to its first
# half and resume it; cases.csv must equal the uninterrupted run's.
./target/release/amsfi run cpu-set --batch --journal "$tmp/whole.journal" \
    --out "$tmp/whole" --progress-secs 0
head -n "$(($(wc -l <"$tmp/whole.journal") / 2))" "$tmp/whole.journal" >"$tmp/half.journal"
./target/release/amsfi run cpu-set --batch --journal "$tmp/half.journal" --resume \
    --out "$tmp/resumed" --progress-secs 0
cmp "$tmp/whole/cases.csv" "$tmp/resumed/cases.csv"
batch_equals_plain pll pll-digital --limit 6
test "$(grep -c '"kind":"batch","name":"fallback"' "$tmp/pll.jsonl")" -eq 1
grep -q '"reason":"campaign has no batch spec"' "$tmp/pll.jsonl"
# Mixed cut (--checkpoint on a mixed bench): an SEU that cannot reach the
# analog half follows the tape of the first such fork of its snapshot and
# must report what the from-scratch run reports (journals differ by
# design: `forked=<t_fs>`). The run has to say that cases followed and
# none fell back: a refactor that silently stops following is a slowdown
# byte identity cannot see. Three workers fork off the one golden ladder
# at once, each following its own leaders.
./target/release/amsfi run pll-digital --out "$tmp/cut.plain" --progress-secs 0
./target/release/amsfi run pll-digital --checkpoint --workers 3 \
    --out "$tmp/cut.fork" --progress-secs 0 >"$tmp/cut.txt"
cmp "$tmp/cut.plain/cases.csv" "$tmp/cut.fork/cases.csv"
grep -Eq '^path: fork, followed: [1-9][0-9]*, fallbacks: 0$' "$tmp/cut.txt"
set +e
./target/release/amsfi run cpu --batch --word --progress-secs 0
rc=$?
set -e
test "$rc" -eq 64
./target/release/amsfi list >"$tmp/list.txt"
grep -q "cpu.*batch" "$tmp/list.txt"
rm -rf "$tmp"

# --batch --early-abort CLI e2e: a word lane records no trace; its
# classifier is fed the lane's mismatch toggles at the machine's stops
# and retires the lane when it seals. On both batch campaigns the class,
# onset and affected columns of cases.csv equal the plain --batch run's,
# no lane falls back to scalar, and the early-abort journal holds sealed
# verdicts — or the toggle-fed seal went unexercised — each booked once:
# as many `early_abort`/`sealed` events as `sealed_at=` records (cpu 36,
# cpu-set 137), so a seal booked twice, or lost, fails.
tmp=$(mktemp -d)
for campaign in cpu cpu-set; do
    for mode in plain early; do
        flag=
        test "$mode" = early && flag=--early-abort
        ./target/release/amsfi run "$campaign" --batch $flag \
            --journal "$tmp/$campaign.$mode.journal" --events "$tmp/$campaign.$mode.jsonl" \
            --out "$tmp/$campaign.$mode" --progress-secs 0
        cut -d, -f1-4,7 "$tmp/$campaign.$mode/cases.csv" >"$tmp/$campaign.$mode.cols"
        test "$(grep -c '"name":"lane_fallback"' "$tmp/$campaign.$mode.jsonl")" -eq 0
    done
    cmp "$tmp/$campaign.plain.cols" "$tmp/$campaign.early.cols"
    grep -Eq ' sealed_at=[0-9]+ ' "$tmp/$campaign.early.journal"
    test "$(grep -c '"kind":"early_abort","name":"sealed"' "$tmp/$campaign.early.jsonl")" \
        -eq "$(grep -c ' sealed_at=' "$tmp/$campaign.early.journal")"
done
rm -rf "$tmp"

# --early-abort CLI e2e on the scalar and fork plans (`cpu` from scratch,
# `pll-sweep --checkpoint`): a watch that seals retires its run inside the
# kernel. Each early-abort run must really seal — at least one
# `early_abort`/`sealed` event, one per `sealed_at=` record — time out and
# retry nothing, and keep the class, onset and affected columns of the
# plain run's cases.csv. A watch that is never asked is a slowdown byte
# identity cannot see.
tmp=$(mktemp -d)
for run in "cpu" "pll-sweep --checkpoint"; do
    name=${run%% *}
    for mode in plain early; do
        flag=
        test "$mode" = early && flag=--early-abort
        ./target/release/amsfi run $run $flag \
            --journal "$tmp/$name.$mode.journal" --events "$tmp/$name.$mode.jsonl" \
            --out "$tmp/$name.$mode" --progress-secs 0
        cut -d, -f1-4,7 "$tmp/$name.$mode/cases.csv" >"$tmp/$name.$mode.cols"
    done
    cmp "$tmp/$name.plain.cols" "$tmp/$name.early.cols"
    sealed=$(grep -c '"kind":"early_abort","name":"sealed"' "$tmp/$name.early.jsonl")
    test "$sealed" -ge 1
    test "$sealed" -eq "$(grep -c ' sealed_at=' "$tmp/$name.early.journal")"
    test "$(grep -Ec '"kind":"(timeout|retry)"' "$tmp/$name.early.jsonl")" -eq 0
done
rm -rf "$tmp"

# PR 8 CLI e2e: crash-safe serve with real processes. `amsfi status`
# against a dead address exits with the dedicated code 5; a coordinator
# is SIGKILLed after one shard merges and a restart on the same journal
# dir recovers the campaign (no --campaign needed: the persisted
# submission is replayed); the final merged report is byte-identical to
# a single-process run; `amsfi drain` shuts a coordinator down cleanly.
tmp=$(mktemp -d)
port=17181
set +e
./target/release/amsfi status 127.0.0.1:$port
rc=$?
set -e
test "$rc" -eq 5

./target/release/amsfi serve --bind 127.0.0.1:$port --campaign pll-sweep \
    --shards 3 --journal-dir "$tmp/journals" &
serve_pid=$!
wait_for_coordinator $port "amsfi serve"
./target/release/amsfi worker 127.0.0.1:$port --max-shards 1 --name ci-pre-crash
kill -9 $serve_pid
wait $serve_pid || true

./target/release/amsfi serve --bind 127.0.0.1:$port --until-drained \
    --journal-dir "$tmp/journals" &
serve_pid=$!
wait_for_coordinator $port "recovering amsfi serve"
./target/release/amsfi worker 127.0.0.1:$port --exit-when-done --name ci-post-crash
wait $serve_pid
./target/release/amsfi run pll-sweep --out "$tmp/single" --progress-secs 0
./target/release/amsfi merge "$tmp/journals"/*.journal --out "$tmp/merged"
cmp "$tmp/single/cases.csv" "$tmp/merged/cases.csv"

./target/release/amsfi serve --bind 127.0.0.1:$port --campaign pll-digital \
    --limit 4 --journal-dir "$tmp/drain-journals" &
serve_pid=$!
wait_for_coordinator $port "drain-test amsfi serve"
./target/release/amsfi drain 127.0.0.1:$port
wait $serve_pid
rm -rf "$tmp"

# PR 9 fleet-observability bench: the same campaign runs distributed
# with worker metrics shipping off and on (two workers each, best of
# three). Gates: merged cases.csv byte-identical to a single-process
# run in both modes, every worker labelled in the fleet Prometheus
# export with the shipped case total matching the campaign, and at
# most 5% wall-clock overhead for shipping. Emits
# results/bench/BENCH_pr9.json.
cargo build --release -p amsfi-bench --bin pr9_fleet_obs_bench
./target/release/pr9_fleet_obs_bench

# PR 9 CLI e2e: `amsfi top --once` renders the live fleet view from a
# running coordinator, and `amsfi report --distributed` joins the
# worker's event stream (trace-context stamped) against the journal
# dir, attributing cases to the worker that ran them.
tmp=$(mktemp -d)
port=17191
./target/release/amsfi serve --bind 127.0.0.1:$port --campaign pll-digital \
    --limit 6 --shards 2 --until-drained --journal-dir "$tmp/journals" &
serve_pid=$!
wait_for_coordinator $port "fleet-test amsfi serve"
./target/release/amsfi top 127.0.0.1:$port --once | grep -q "amsfi top"
./target/release/amsfi worker 127.0.0.1:$port --exit-when-done --name ci-fleet \
    --events "$tmp/worker-events.jsonl"
wait $serve_pid
./target/release/amsfi report --distributed "$tmp/journals" \
    --events "$tmp/worker-events.jsonl" | grep -q "cases by worker: ci-fleet"
rm -rf "$tmp"

# PR 13 benchmark gate: the stand-alone benchmark crate's self-test
# (workload names == BENCHMARK.json, exact counts repeat, a corrupted
# verdict is caught), then short runs that must agree with the committed
# reference digests — the oracle every speedup is measured under.
# cpu-seu-word and cpu-set-word are the word kernel, the latter the late,
# dense SET list whose groups fork from the golden run's snapshots;
# cpu-seu-scalar is the scalar kernel on its own — event wheel, lent
# inputs, drive values in one arena, idle zero-delay re-drives never
# queued; pll-mixed-fork is the fork path — analog solver, mixed sync,
# the golden ladder and the mixed cut; cpu-seu-serve is the scalar
# kernel behind a coordinator and a loopback worker.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in cpu-seu-word cpu-set-word cpu-seu-scalar pll-mixed-fork cpu-seu-serve; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1 \
        | grep -q '"correct": true'
done
