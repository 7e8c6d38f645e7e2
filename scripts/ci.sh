#!/usr/bin/env bash
# CI entry point: the tier-1 suite, an explicit pass over the fusion
# equivalence suites (every registry model, fused vs unfused, <= 1e-12), an
# explicit pass over the streaming + parallel worker-pool suites (persistent
# shm ring, per-call transport, intra-mask sharding — all bit-identical to
# serial), the supervision chaos gate (deterministic fault injection: crash
# detection, chunk retry, worker respawn, graceful degradation), and /dev/shm
# leak checks after the chaos gate and at the end.
# Runs with -p no:cacheprovider so repeated CI invocations on read-only or
# shared checkouts never write .pytest_cache state.
#
# Usage:  scripts/ci.sh [extra pytest args]
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Every pytest stage escalates DeprecationWarning to an error: the tree keeps
# no deprecated call path, and a new one fails the build instead of warning.
PYTEST=(python -m pytest -x -q -p no:cacheprovider -W "error::DeprecationWarning")

# The whole run must leave /dev/shm clean: every pipeline segment is named
# repro_<pid>_<token> and owned by the registry in repro.pipeline.streaming.
# A segment whose owning pid is still alive belongs to a concurrent run (a
# live persistent ring is by design); only segments of dead processes are
# leaks, which keeps the gate race-free on shared runners.
check_shm_clean() {
    echo "== /dev/shm leak check ($1) =="
    if [ -d /dev/shm ]; then
        leftovers=""
        for seg in /dev/shm/repro_*; do
            [ -e "${seg}" ] || continue
            name=$(basename "${seg}")
            pid=$(echo "${name}" | cut -d_ -f2)
            if ! kill -0 "${pid}" 2>/dev/null; then
                leftovers="${leftovers}${name} "
            fi
        done
        if [ -n "${leftovers}" ]; then
            echo "stale repro shared-memory segments (owners dead): ${leftovers}" >&2
            exit 1
        fi
        echo "clean"
    else
        echo "skipped (/dev/shm not present)"
    fi
}

# Static-analysis gate first: the AST linter machine-checks the engine's
# conventions (knob registry, shm hygiene, dtype boundaries, hot-path
# allocation discipline, exception discipline — see docs/static_analysis.md)
# over every Python file in the tree, with zero baseline entries.  It is the
# cheapest gate, so a convention violation fails the build before any test
# time is spent.
echo "== repro.analysis static-analysis gate (zero findings, zero baseline) =="
python -m repro.analysis src benchmarks examples scripts

# The stages partition the tier-1 suite (no test runs twice): everything
# except the fusion, streaming/parallel, incremental/caching and supervision
# files first, then each suite as its own visibly-labelled gate.
echo "== tier-1 tests =="
"${PYTEST[@]}" tests \
    --ignore=tests/nn/test_fusion.py --ignore=tests/pipeline/test_compiled_pipeline.py \
    --ignore=tests/pipeline/test_parallel.py --ignore=tests/pipeline/test_streaming.py \
    --ignore=tests/pipeline/test_cache.py --ignore=tests/opc/test_incremental.py \
    --ignore=tests/pipeline/test_supervision.py --ignore=tests/pipeline/test_backends.py \
    --ignore=tests/pipeline/test_config.py "$@"

# The execution-config contract (docs/architecture.md): one resolved
# ExecutionConfig document, the only resolver of the execution knobs, with
# explicit > REPRO_* > default precedence, per-field provenance, junk
# environment values rejected by name, and JSON-round-tripping
# ExecutionPlans that match the executed stats.
echo "== execution-config suite (one resolver, provenance, plans == stats) =="
"${PYTEST[@]}" tests/pipeline/test_config.py "$@"

# -W error::FusionFallbackWarning: a fallback silently re-appearing anywhere
# in the zoo (e.g. a transposed-conv declaration rotting back to unfused)
# fails the build instead of just degrading throughput.  Tests that exercise
# the fallback machinery on purpose catch the warning with pytest.warns,
# which scopes its own filter, so they still pass under the global error.
echo "== fusion equivalence suite (compiled == unfused for the whole zoo, no fallbacks) =="
"${PYTEST[@]}" \
    -W "error::repro.nn.fusion.FusionFallbackWarning" \
    tests/nn/test_fusion.py tests/pipeline/test_compiled_pipeline.py "$@"

# Backend matrix: the per-lane pipeline suite runs under the default
# environment (every lane pinned explicitly), then the fusion + compiled
# pipeline + backend suites re-run with REPRO_BACKEND=float32 — proving the
# env knob engages end to end while compile_model and every explicitly
# pinned comparison stay deterministic.  Both legs keep the fallback
# warning escalated: no lane may reintroduce a silent unfused fallback.
echo "== compute-backend matrix: per-lane pipeline suite (float64 env) =="
"${PYTEST[@]}" \
    -W "error::repro.nn.fusion.FusionFallbackWarning" \
    tests/pipeline/test_backends.py "$@"

echo "== compute-backend matrix: REPRO_BACKEND=float32 over fusion + pipeline suites =="
REPRO_BACKEND=float32 "${PYTEST[@]}" \
    -W "error::repro.nn.fusion.FusionFallbackWarning" \
    tests/nn/test_fusion.py tests/pipeline/test_compiled_pipeline.py \
    tests/pipeline/test_backends.py "$@"

echo "== streaming + parallel worker-pool suites (pooled == serial, bit for bit) =="
"${PYTEST[@]}" \
    tests/pipeline/test_parallel.py tests/pipeline/test_streaming.py "$@"

echo "== incremental OPC + result-cache suites (patched == full re-simulation, bit for bit) =="
"${PYTEST[@]}" \
    tests/pipeline/test_cache.py tests/opc/test_incremental.py "$@"

# The chaos gate kills, crashes and hangs workers on purpose (deterministic
# REPRO_FAULT_PLAN injection); its own /dev/shm check right after proves the
# supervision + registry teardown survives every fault mode without leaking.
echo "== supervision chaos gate (fault injection: heal bit-identically or fail structured) =="
"${PYTEST[@]}" \
    tests/pipeline/test_supervision.py "$@"
check_shm_clean "after chaos gate"

check_shm_clean "final"
