#!/bin/sh
# Perf smoke run: shrunken experiment sweeps plus the commit-path trajectory
# runner. Every step runs even when an earlier one fails, so one failing
# gate does not hide the others; the script exits non-zero at the end,
# naming each failed step, and prints the trajectory JSON summary. Run from
# the repository root:
#
#   sh bench/smoke.sh

# Default to a _smoke suffix so a smoke run never overwrites the committed
# full-run baseline that bench/predictability.exe gates against by default.
OUT="${1:-BENCH_commit_path_smoke.json}"

FAILED=""

# step NAME CMD...: print the banner, run CMD, record NAME if it fails.
step() {
  name="$1"
  shift
  echo
  echo "== bench smoke: $name =="
  if ! "$@"; then
    echo "smoke: step failed: $name" >&2
    FAILED="$FAILED
  $name"
  fi
}

step "experiments (--fast)" \
  dune exec bench/main.exe -- --fast

step "crash/fault-injection sweep" \
  dune exec bench/crash_sweep.exe -- --fast

step "commit-path trajectory" \
  dune exec bench/trajectory.exe -- --fast --out "$OUT"

# Gates against the trajectory baseline generated seconds earlier in this
# same script; the committed BENCH_commit_path.json is the default
# baseline for full local runs. Exits non-zero if any attempt's phase
# durations fail to sum to its latency within 1%, or if the direct
# commit-path scenarios (which call Occ and Storage and run no Obs code)
# run more than 3% slower than that baseline. Here that compares the same
# code against itself a few seconds apart; it does not measure the
# tracing sink (DESIGN.md §6.5).
step "predictability (phase-sum and overhead gated)" \
  dune exec bench/predictability.exe -- --fast --baseline "$OUT" \
    --out BENCH_predictability_smoke.json

# The runner exits non-zero if any run fails its equivalence audit
# (money conservation, secondary indexes, internal errors), so a broken
# parallel runtime fails the smoke even when throughput looks fine.
step "parallel scaling (audit-gated)" \
  dune exec bench/parallel_scaling.exe -- --fast --out BENCH_parallel_scaling_smoke.json

# Static vs steal vs cost-router vs dynamic sweeps under uniform and
# Zipfian skew. The runner exits non-zero if any run fails its
# equivalence audit, or if the dynamic mode records zero steals under
# skew (the stealing path silently disabled).
step "dynamic scheduling (audit- and steal-gated)" \
  dune exec bench/scheduler.exe -- --fast --out BENCH_scheduler_smoke.json

# Sequential vs fan-out/collect formulations morphed by the deployment
# (shared-nothing vs shared-nothing-async) at 1/2/4 containers, on the
# simulator's virtual clock. Exits non-zero if money conservation or
# history certification fails, if phase sums deviate by more than 1%, or
# if the 4-container fan-out speedup drops below 1.5x (measured or
# predicted).
step "intra-transaction parallelism (audit- and speedup-gated)" \
  dune exec bench/intra_txn.exe -- --fast --out BENCH_intra_txn_smoke.json

# Epoch-based snapshot reads vs the OCC read path, zipf theta x read
# fraction on both backends. Exits non-zero if any read-only transaction
# aborts, if a committed read observes an unconserved total (the
# consistency audit), if phase sums deviate by more than 1%, or if the
# snapshot read p99 is not strictly below the OCC baseline's at theta
# 0.99.
step "snapshot reads (audit- and p99-gated)" \
  dune exec bench/snapshot.exe -- --fast --out BENCH_snapshot_smoke.json

# Live reconfiguration: forced migrations of a hot reactor under a
# closed-loop conserving load, the simulator byte-identity oracle
# (migrated vs static placement), and the signal-driven autoscaler
# splitting an all-on-one-domain deployment. Exits non-zero if any
# transaction is lost or duplicated, money is not conserved, throughput
# fails to recover to 90% of the pre-migration steady state, a migration
# pause exceeds its bound, the migrated sim run diverges from the static
# one, or the autoscaler never splits.
step "elasticity (audit- and recovery-gated)" \
  dune exec bench/elasticity.exe -- --fast --out BENCH_elasticity_smoke.json

# Seeded fault injection across every chaos class on both backends; the
# runner exits non-zero if any scenario violates its audits (money
# conservation, attempt accounting, zero internal errors, bounded
# wall-clock progress, sheds under --mailbox-cap with bounded p99).
step "chaos sweep (audit-gated)" \
  dune exec bench/chaos_sweep.exe -- --fast --seed 42 --out BENCH_chaos_smoke.json

# Log shipping to two replicas with frozen-epoch replica-read audits, a
# seeded kill-primary failover drill (fence -> final ship -> gated
# promotion -> resumed engine), and shipment chaos (dropped/delayed
# batches). Exits non-zero if a replica read deviates from the loaded
# total, replicas fail to converge to the durable epoch, an acked commit
# is lost across failover, attempt accounting breaks, promotion fails
# its recovery-equivalence oracle, or the failover pause is unbounded.
step "replication (audit- and failover-gated)" \
  dune exec bench/replication.exe -- --fast --seed 42 --out BENCH_replication_smoke.json

echo
echo "== $OUT =="
cat "$OUT" || FAILED="$FAILED
  missing $OUT"

if [ -n "$FAILED" ]; then
  echo
  echo "smoke: failed steps:$FAILED" >&2
  exit 1
fi
