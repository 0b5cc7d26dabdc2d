#!/usr/bin/env bash
# Lists the am:: library functions that no production binary reaches.
#
# Builds every production target (tools, benches, examples, conformance_fuzz)
# plus perfbench at -O0 with one section per function and links them with
# --gc-sections, so a function survives in a binary only if something the
# binary runs can call it. A T/W symbol defined in a libam_*.a archive that
# appears in none of the linked binaries is reachable from tests alone.
# Entries of scripts/dead_code_allow.txt (deliberate test seams) are
# excluded; anything else is printed and the script exits 1.
#
# Usage: scripts/dead_code.sh [build-dir]   (default: build-deadcode)
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-build-deadcode}"
case "$build_dir" in /*) ;; *) build_dir="$repo_root/$build_dir" ;; esac
allow="$repo_root/scripts/dead_code_allow.txt"

flags="-O0 -ffunction-sections -fdata-sections"
common=(-DCMAKE_BUILD_TYPE=DeadCode "-DCMAKE_CXX_FLAGS=$flags"
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S "$repo_root" -B "$build_dir" -DAM_BUILD_TESTS=OFF "${common[@]}" \
  > /dev/null
cmake --build "$build_dir" -j "$(nproc)" > /dev/null
cmake -S "$repo_root/perfbench" -B "$build_dir/perfbench" \
  "-DAM_SOURCE_DIR=$repo_root" "-DAM_BUILD_DIR=$build_dir" "${common[@]}" \
  > /dev/null
cmake --build "$build_dir/perfbench" -j "$(nproc)" > /dev/null

# Demangled signatures drop abi tags and the space in "> >", which vary with
# the toolchain, so the allowlist matches on any recent GCC/binutils.
normalize() { sed -E 's/\[abi:[a-z0-9]+\]//g; s/ >/>/g'; }

# Demangled names of the defined text symbols (T) and weak/COMDAT ones (W)
# in the given files, restricted to the am:: namespace.
am_symbols() {
  nm -C --defined-only "$@" 2>/dev/null |
    sed -n -E 's/^[0-9a-f]+ [TW] (am::.*)$/\1/p' | normalize | sort -u
}

mapfile -t binaries < <(
  find "$build_dir/tools" "$build_dir/bench" "$build_dir/examples" \
       "$build_dir/src/conformance" "$build_dir/perfbench" \
       -maxdepth 1 -type f -perm -u+x)
if [ "${#binaries[@]}" -eq 0 ]; then
  echo "dead_code: no binaries under $build_dir" >&2
  exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
am_symbols "$build_dir"/src/*/libam_*.a > "$work/library"
am_symbols "${binaries[@]}" > "$work/reached"
# Allowlist lines are "<demangled signature>  # <reason>".
sed -n -E 's/^([^#].*[^ ]) +# .*$/\1/p' "$allow" | normalize | sort -u \
  > "$work/allowed"

comm -23 "$work/library" "$work/reached" > "$work/unreached"
comm -23 "$work/unreached" "$work/allowed" > "$work/dead"
comm -13 "$work/unreached" "$work/allowed" > "$work/stale"

echo "dead_code: ${#binaries[@]} binaries," \
     "$(wc -l < "$work/library") am:: library functions," \
     "$(wc -l < "$work/unreached") unreached," \
     "$(wc -l < "$work/allowed") allowed"
if [ -s "$work/stale" ]; then
  echo "allowlist entries that are no longer unreached (drop them):"
  sed 's/^/  /' "$work/stale"
fi
if [ -s "$work/dead" ]; then
  echo "am:: functions only tests reach (delete them, give them a caller," \
       "or allow them with a reason in scripts/dead_code_allow.txt):"
  sed 's/^/  /' "$work/dead"
  exit 1
fi
echo "dead_code: clean"
