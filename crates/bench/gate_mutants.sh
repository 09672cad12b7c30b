#!/bin/sh
# `sh crates/bench/gate_mutants.sh`: plant each kernel mutant the inference
# gate must catch in a copy of the working tree and expect three quick
# `bench_baseline --check` runs of each to exit 1; the unplanted copy, on
# both arms, must pass first. Each mutant is a release build, so this is
# not a CI step. Exits 1 if any run ends otherwise than expected.
set -eu
repo=$(cd "$(dirname "$0")/../.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tar -C "$repo" --exclude=./target --exclude=./.git --exclude=./.bench_build \
    --exclude=./benchmark/target -cf - . | tar -C "$work" -xf -
kernels="$work/crates/llm/src/kernels.rs"
arm="$work/crates/model/src/arm.rs"
cp "$kernels" "$work/kernels.rs.orig"
cp "$arm" "$work/arm.rs.orig"

# Literal seds: on arm.rs, the AVX-512 instance of per_arm! runs its body
# on the AVX2 lane vector, or arm()'s AVX-512 return is deleted, so the
# process runs (and gates) as an AVX2 runner; on kernels.rs, every matmul
# runs on the portable arm.
avx2_body='s/type \$lane = ::core::arch::x86_64::__m512;/type $lane = ::core::arch::x86_64::__m256;/'
portable='s/half_units::sweep_on(arm, &block);/half_units::sweep_on(Arm::Portable, \&block);/'
no_avx512='/            return Arm::Avx512;/d'

status=0
run() { # <name> <expected exit> [<file> <sed script>]...
    name=$1 want=$2
    shift 2
    cp "$work/kernels.rs.orig" "$kernels"
    cp "$work/arm.rs.orig" "$arm"
    while [ $# -gt 0 ]; do
        file=$1 script=$2
        shift 2
        cp "$file" "$work/before.rs"
        sed -i "$script" "$file"
        cmp -s "$file" "$work/before.rs" && { echo "$name: '$script' matched nothing" >&2; exit 1; }
    done
    (cd "$work" && cargo build --release --offline --quiet -p hnlpu-bench --example bench_baseline)
    for i in 1 2 3; do
        got=0
        HNLPU_BENCH_QUICK=1 "$work/target/release/examples/bench_baseline" --check \
            > "$work/out.txt" 2>&1 || got=$?
        [ "$got" -eq "$want" ] && verdict=ok || { verdict=UNEXPECTED; status=1; }
        bands=$(grep -E '^  (fma loop|g[0-9]+):' "$work/out.txt" | tr -s ' ' | tr '\n' ';')
        echo "$name run $i: exit $got (want $want) $verdict:$bands"
    done
}

run unplanted 0
run unplanted-on-avx2 0 "$arm" "$no_avx512"
run avx2-body 1 "$arm" "$avx2_body"
run portable 1 "$kernels" "$portable"
run portable-on-avx2 1 "$kernels" "$portable" "$arm" "$no_avx512"
exit "$status"
