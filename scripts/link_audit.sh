#!/usr/bin/env bash
# Link audit: every function in libcreditflow is either reachable from a
# production binary (the examples, the benches and perfbench) or listed,
# with a reason, in scripts/link_audit_allow.txt. A readout check rides
# along: every registry cell must have a production reader.
#
#   scripts/link_audit.sh            # from anywhere; builds into build-audit/
#   CXX=g++-13 scripts/link_audit.sh # pin the compiler (CI does)
#
# Every production binary is built unoptimised with one section per function,
# and the linker drops each section nothing reaches, so a library function
# survives in a binary only if that binary can call it. Demangled signatures
# are compared in full: an unreferenced overload of a linked name is a hit.
#
# The readout check needs no build. Each name src/ passes to counter_cell or
# histogram_cell must appear quoted in a production source (src/ outside its
# registering call, examples/, bench/ or perfbench/), or be allowlisted as
# "readout <name>  # reason". A cell only tests read costs every run work
# that reaches no output.
#
# Exits 1 when a hit or an unread cell is not on the allowlist, when an
# allowlisted signature is no longer a hit (it is linked now, or gone) or an
# allowlisted cell is read now or gone, or when a production binary was not
# built (the perf_* benches need google-benchmark).
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
A=$root/build-audit
allow=$root/scripts/link_audit_allow.txt
flags="-O0 -fno-inline -ffunction-sections"
jobs=$(nproc)

status=0
cells=$(grep -rhoE '(counter|histogram)_cell\("[^"]+"\)' "$root/src" |
  sed -E 's/.*\("(.*)"\)$/\1/' | sort -u)
read_allow=$(awk '{ sub(/#.*/, "") } $1 == "readout" { print $2 }' "$allow")
unread=0
for name in $cells; do
  readers=$(grep -rhF --include='*.[ch]pp' -- "\"$name\"" "$root/src" \
    "$root/examples" "$root/bench" "$root/perfbench" |
    grep -vF "_cell(\"$name\")" || true)
  if grep -qxF -- "$name" <<< "$read_allow"; then
    unread=$((unread + 1))
    if [[ -n $readers ]]; then
      echo "readout check: allowlisted but read now: $name"
      status=1
    fi
  elif [[ -z $readers ]]; then
    echo "readout check: no production reader: $name"
    status=1
  fi
done
while IFS= read -r name; do
  if [[ -n $name ]] && ! grep -qxF -- "$name" <<< "$cells"; then
    echo "readout check: allowlisted but not registered: $name"
    status=1
  fi
done <<< "$read_allow"
echo "readout check: $(wc -w <<< "$cells") cells, $unread allowlisted"

cmake -B "$A" -S "$root" -DCMAKE_BUILD_TYPE=Debug -DBUILD_TESTING=OFF \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \
  > /dev/null
cmake --build "$A" -j "$jobs" > /dev/null
cmake -S "$root/perfbench" -B "$A/pb" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \
  > /dev/null
cmake --build "$A/pb" --target perfbench -j "$jobs" > /dev/null

bins=("$A/pb/perfbench")
for src in "$root"/examples/*.cpp "$root"/bench/*.cpp; do
  bins+=("$A/$(basename "$src" .cpp)")
done
present=()
for bin in "${bins[@]}"; do
  if [[ -x $bin ]]; then
    present+=("$bin")
  else
    echo "link audit: production binary not built: ${bin#"$root"/}"
    status=1
  fi
done

syms() {
  nm -C --defined-only "$@" 2> /dev/null |
    awk '$2 ~ /^[TtWw]$/ { $1 = $2 = ""; s = substr($0, 3)
                           if (index(s, "creditflow::") == 1) print s }' |
    sort -u
}
syms "$A/libcreditflow.a" > "$A/lib.txt"
syms "${present[@]}" > "$A/linked.txt"
comm -23 "$A/lib.txt" "$A/linked.txt" > "$A/hits.txt"
awk '{ sub(/#.*/, ""); gsub(/^[ \t]+|[ \t]+$/, "") }
     $0 != "" && $1 != "readout"' "$allow" | sort -u > "$A/allow.txt"

while IFS= read -r sig; do
  echo "link audit: no production caller: $sig"
  status=1
done < <(comm -23 "$A/hits.txt" "$A/allow.txt")
while IFS= read -r sig; do
  if grep -qxF -- "$sig" "$A/lib.txt"; then
    echo "link audit: allowlisted but linked now: $sig"
  else
    echo "link audit: allowlisted but not in the library: $sig"
  fi
  status=1
done < <(comm -13 "$A/hits.txt" "$A/allow.txt")

echo "link audit: $(wc -l < "$A/hits.txt") unlinked, $(wc -l < "$A/allow.txt") allowlisted, ${#present[@]}/${#bins[@]} binaries"
exit "$status"
