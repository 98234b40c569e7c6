#!/usr/bin/env bash
# Configure and build one of the CI build flavours into build-<flavour>/
# at the repository root.
#
#   tools/ci_build.sh <flavour> [targets...]
#
# Flavours:
#   release  Release, KILLI_CHECK_INVARIANTS=ON
#   perf     Release, KILLI_CHECK_INVARIANTS=OFF (timing, e.g.
#            tools/bench_codec.py over codec_micro: the invariant sweeps
#            run on every access hook and would dilute both sides of a
#            comparison)
#   asan     RelWithDebInfo with ASan + UBSan, KILLI_CHECK_INVARIANTS=ON
#   tsan     RelWithDebInfo with TSan
#   notrace  Release with only the l2 trace category compiled in
#            (KILLI_TRACE_CATEGORIES=l2): a test that reads a trace
#            event must skip what the compiled mask leaves out
#
# Without targets the whole tree is built.
set -euo pipefail

usage="usage: tools/ci_build.sh <release|perf|asan|tsan|notrace> [targets...]"
flavour=${1:?$usage}
shift

case "$flavour" in
release)
    args=(-DCMAKE_BUILD_TYPE=Release -DKILLI_CHECK_INVARIANTS=ON) ;;
perf)
    args=(-DCMAKE_BUILD_TYPE=Release -DKILLI_CHECK_INVARIANTS=OFF) ;;
asan)
    args=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DKILLI_CHECK_INVARIANTS=ON
          "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
          "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=address,undefined") ;;
tsan)
    args=(-DCMAKE_BUILD_TYPE=RelWithDebInfo
          "-DCMAKE_CXX_FLAGS=-fsanitize=thread -fno-omit-frame-pointer"
          "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread") ;;
notrace)
    args=(-DCMAKE_BUILD_TYPE=Release -DKILLI_TRACE_CATEGORIES=l2) ;;
*)
    echo "ci_build.sh: unknown flavour '$flavour'; $usage" >&2
    exit 2 ;;
esac

cd "$(dirname "$0")/.."
dir="build-$flavour"
cmake -B "$dir" -S . "${args[@]}"
if [ $# -gt 0 ]; then
    cmake --build "$dir" -j "$(nproc)" --target "$@"
else
    cmake --build "$dir" -j "$(nproc)"
fi
