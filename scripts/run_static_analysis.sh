#!/usr/bin/env bash
# Static-analysis gate: three independent layers, strictest available.
#
#   dsflint        The project-native analyzer (tools/dsflint/): typed
#                  findings over its own tokenizer + scope tracker, no
#                  compiler frontend needed, so this layer ALWAYS runs —
#                  in the GCC-only container it is the whole locking and
#                  catalog gate. Rules (see docs/ANALYSIS.md):
#                    guarded-by           DSF_GUARDED_BY fields touched
#                                         without their mutex in scope
#                    lock-order           acquisition edges vs the declared
#                                         hierarchy in
#                                         tools/dsflint/lock_hierarchy.txt,
#                                         plus cycle detection
#                    discarded-status     Status/StatusOr results dropped
#                                         at call sites
#                    metric-catalog       metric names outside the
#                                         src/obs/metric_names.h catalog
#                                         (also swept over bench/examples/
#                                         tests, where only this rule runs)
#                    spankind-catalog     SpanKind enumerators unhandled in
#                                         exporters
#                    raw-page-io          PageFile::RawRead/RawWrite
#                                         confined to src/storage/
#                    check-on-fault-path  no DSF_CHECK over a Status in
#                                         fault-reachable code
#                    no-naked-mutex       std:: lock primitives outside the
#                                         annotated dsf:: wrappers
#                  Escape hatch: `lint:allow(<rule>): reason` on the line
#                  or within three lines above.
#
#   thread-safety  DSF_ANALYZE build (needs clang++): full compile under
#                  -Wthread-safety -Werror over the DSF_GUARDED_BY
#                  annotations.
#
#   clang-tidy     (needs clang-tidy + compile_commands.json): the
#                  .clang-tidy check set with WarningsAsErrors over src/.
#
# Usage:
#   run_static_analysis.sh [--layers=LIST] [--summary=FILE]
#
#   --layers=auto (default) runs dsflint and whichever clang layers the
#   toolchain supports, skipping the rest with a notice. An explicit
#   list (e.g. --layers=dsflint,thread-safety) makes every named layer
#   mandatory: a missing toolchain is then reported as `unavailable`
#   and the script exits nonzero instead of silently passing.
#
#   The run always ends with one machine-readable JSON line on stdout
#   (and into FILE with --summary) describing every layer:
#     {"layers":[{"name":"dsflint","status":"ok"},...],"failures":0}
#   Statuses: ok | failed | skipped | unavailable.
set -uo pipefail
cd "$(dirname "$0")/.."

requested="auto"
summary_file=""
for arg in "$@"; do
  case "$arg" in
    --layers=*) requested="${arg#--layers=}" ;;
    --summary=*) summary_file="${arg#--summary=}" ;;
    *) echo "usage: $0 [--layers=auto|dsflint,thread-safety,clang-tidy]" \
            "[--summary=FILE]" >&2
       exit 2 ;;
  esac
done

layer_names=()
layer_status=()
failures=0

record() {  # record <layer> <status>
  layer_names+=("$1")
  layer_status+=("$2")
  case "$2" in
    failed|unavailable) failures=$((failures + 1)) ;;
  esac
}

wants() {  # wants <layer>: is this layer requested?
  [[ "$requested" == "auto" ]] && return 0
  [[ ",$requested," == *",$1,"* ]]
}

# In auto mode a missing toolchain downgrades the layer to a skip; in an
# explicit --layers list it is a hard failure.
missing_status() {
  [[ "$requested" == "auto" ]] && echo "skipped" || echo "unavailable"
}

# --- Layer 1: dsflint ------------------------------------------------

if wants dsflint; then
  echo "== dsflint =="
  # Prefer the cmake-built binary; otherwise compile standalone — the
  # analyzer is four translation units of plain C++20, so this works in
  # any container with a host compiler, no build dir needed.
  DSFLINT=""
  if [[ -x build/tools/dsflint/dsflint ]]; then
    DSFLINT=build/tools/dsflint/dsflint
  else
    cxx=""
    for candidate in c++ g++ clang++; do
      command -v "$candidate" >/dev/null 2>&1 && cxx="$candidate" && break
    done
    if [[ -n "$cxx" ]]; then
      DSFLINT=$(mktemp -d)/dsflint
      if ! "$cxx" -std=c++20 -O1 -I tools/dsflint -o "$DSFLINT" \
           tools/dsflint/lexer.cc tools/dsflint/report.cc \
           tools/dsflint/analyzer.cc tools/dsflint/main.cc; then
        DSFLINT=""
      fi
    fi
  fi
  if [[ -z "$DSFLINT" ]]; then
    echo "$(missing_status) [dsflint]: no C++ compiler to build it"
    record dsflint "$(missing_status)"
  else
    ok=1
    # Full rule set over the enforced tree, against the declared lock
    # hierarchy. tests/dsflint_fixtures/ holds seeded violations for
    # dsflint's own tests and must never enter the repo gate.
    "$DSFLINT" --hierarchy=tools/dsflint/lock_hierarchy.txt \
        --exclude=dsflint_fixtures src tools || ok=0
    # The metric catalog is closed repo-wide: benches, examples and
    # tests register metrics through src/obs/metric_names.h constants
    # too. Only the catalog rule runs out there.
    "$DSFLINT" --rules=metric-catalog --exclude=dsflint_fixtures \
        --strict-dir=src/ --strict-dir=tools/ --strict-dir=bench/ \
        --strict-dir=examples/ --strict-dir=tests/ \
        src bench examples tests || ok=0
    if [[ "$ok" -eq 1 ]]; then
      echo "ok   [dsflint]"
      record dsflint ok
    else
      echo "FAIL [dsflint]"
      record dsflint failed
    fi
  fi
fi

# --- Layer 2: thread-safety analysis build --------------------------

if wants thread-safety; then
  if command -v clang++ >/dev/null 2>&1; then
    echo "== DSF_ANALYZE build (clang -Wthread-safety -Werror) =="
    if CC=clang CXX=clang++ cmake -B build-analyze -DDSF_ANALYZE=ON \
          >/dev/null \
        && cmake --build build-analyze -j "$(nproc)"; then
      echo "ok   [thread-safety]"
      record thread-safety ok
    else
      echo "FAIL [thread-safety]"
      record thread-safety failed
    fi
  else
    echo "$(missing_status) [thread-safety]: clang++ not found"
    record thread-safety "$(missing_status)"
  fi
fi

# --- Layer 3: clang-tidy --------------------------------------------

if wants clang-tidy; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy =="
    # Prefer the analyze build's database (clang flags match the tool);
    # fall back to any configured build dir.
    db=""
    for d in build-analyze build; do
      [[ -f "$d/compile_commands.json" ]] && db="$d" && break
    done
    if [[ -z "$db" ]]; then
      cmake -B build >/dev/null
      db=build
    fi
    if find src -name '*.cc' -print0 \
        | xargs -0 -P "$(nproc)" -n 8 clang-tidy -p "$db" --quiet; then
      echo "ok   [clang-tidy]"
      record clang-tidy ok
    else
      echo "FAIL [clang-tidy]"
      record clang-tidy failed
    fi
  else
    echo "$(missing_status) [clang-tidy]: clang-tidy not found"
    record clang-tidy "$(missing_status)"
  fi
fi

# --- Summary ---------------------------------------------------------

if [[ "${#layer_names[@]}" -eq 0 ]]; then
  echo "static analysis: no known layer in --layers=$requested" >&2
  exit 2
fi

summary='{"layers":['
for i in "${!layer_names[@]}"; do
  [[ "$i" -gt 0 ]] && summary+=','
  summary+="{\"name\":\"${layer_names[$i]}\",\"status\":\"${layer_status[$i]}\"}"
done
summary+="],\"failures\":$failures}"
echo "$summary"
[[ -n "$summary_file" ]] && echo "$summary" > "$summary_file"

if [[ "$failures" -ne 0 ]]; then
  echo "static analysis: $failures layer(s) failed or unavailable"
  exit 1
fi
echo "static analysis: all requested layers passed"
