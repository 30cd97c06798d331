#!/usr/bin/env bash
# Link audit: every function in libcreditflow is either reachable from a
# production binary (the examples, the benches and perfbench) or listed,
# with a reason, in scripts/link_audit_allow.txt. Two text checks ride
# along: every registry cell must have a production reader, and every
# virtual member function must be listed with its production caller.
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
# The virtual check needs no build either. --gc-sections cannot see an
# unread virtual member, because its vtable links it, so each virtual
# function src/ declares (destructors aside) must be listed as
# "virtual <Class>::<name>  # production caller", the class path nested as
# declared (Simulator::Agent::on_event).
#
# Exits 1 when a hit, an unread cell or a virtual member is not on the
# allowlist, when an allowlisted signature is no longer a hit (it is linked
# now, or gone), an allowlisted cell is read now or gone, or an allowlisted
# virtual member is gone, or when a production binary was not built (the
# perf_* benches need google-benchmark).
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

# Each line's code, with comments and string and character literals blanked,
# tracks the class nesting by braces; a "virtual" that is not a destructor
# prints its class path and the name before its "(" on the same line.
virtuals=$(find "$root/src" -name '*.[ch]pp' | sort | xargs awk '
  FNR == 1 { depth = 0; top = 0; pending = ""; in_block = 0 }
  {
    code = ""; n = length($0); i = 1
    while (i <= n) {
      c = substr($0, i, 1); d = substr($0, i, 2)
      if (in_block) { if (d == "*/") { in_block = 0; i += 2 } else i++; continue }
      if (d == "//") break
      if (d == "/*") { in_block = 1; i += 2; continue }
      if (c == "\"" || c == "\047") {
        for (i++; i <= n && substr($0, i, 1) != c; i++)
          if (substr($0, i, 1) == "\\") i++
        i++; code = code " "; continue
      }
      code = code c; i++
    }
    if (code ~ /(^|[^A-Za-z0-9_])virtual[ \t]/ && code !~ /virtual[ \t]*~/) {
      head = substr(code, index(code, "virtual") + 7)
      paren = index(head, "(")
      head = paren ? substr(head, 1, paren - 1) : ""
      if (match(head, /[A-Za-z_][A-Za-z0-9_]*[ \t]*$/)) {
        path = ""
        for (k = 1; k <= top; k++) path = path name[k] "::"
        name_ = substr(head, RSTART, RLENGTH); sub(/[ \t]+$/, "", name_)
        print "virtual " path name_
      } else {
        print "unparsed " FILENAME ":" FNR
      }
    }
    if (match(code, /^[ \t]*(class|struct)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
      pending = substr(code, RSTART, RLENGTH)
      sub(/^[ \t]*(class|struct)[ \t]+/, "", pending)
    }
    for (i = 1; i <= length(code); i++) {
      c = substr(code, i, 1)
      if (c == "{") {
        depth++
        if (pending != "") { name[++top] = pending; at[top] = depth; pending = "" }
      } else if (c == "}") {
        if (top > 0 && at[top] == depth) top--
        depth--
      } else if (c == ";") {
        pending = ""
      }
    }
  }')
virt_allow=$(awk '{ sub(/#.*/, "") } $1 == "virtual" { print "virtual " $2 }' \
  "$allow")
while IFS= read -r decl; do
  if [[ $decl == unparsed* ]]; then
    echo "virtual check: no name before ( on the virtual's line: ${decl#unparsed }"
    status=1
  elif [[ -n $decl ]] && ! grep -qxF -- "$decl" <<< "$virt_allow"; then
    echo "virtual check: not allowlisted: $decl"
    status=1
  fi
done <<< "$virtuals"
while IFS= read -r decl; do
  if [[ -n $decl ]] && ! grep -qxF -- "$decl" <<< "$virtuals"; then
    echo "virtual check: allowlisted but not declared: $decl"
    status=1
  fi
done <<< "$virt_allow"
echo "virtual check: $(grep -c . <<< "$virtuals") virtual members, $(grep -c . <<< "$virt_allow") allowlisted"

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
     $0 != "" && $1 != "readout" && $1 != "virtual"' "$allow" |
  sort -u > "$A/allow.txt"

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
