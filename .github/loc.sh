#!/bin/sh
# Tracked number: non-test, non-comment, non-blank lines of product code
# per crate (each file is counted up to its first `#[cfg(test)]`).
# Printed by CI, not gated; CHANGES.md entries quote it. `loc.sh DIR`
# counts another checkout (the parent commit).
cd "${1:-$(dirname "$0")/..}" || exit 1
total=0
for src in crates/*/src; do
    n=$(find "$src" -name '*.rs' | sort | while read -r f; do
        awk '/^#\[cfg\(test\)\]/{exit} {s=$0; sub(/^[ \t]+/,"",s); if (s!="" && s !~ /^\/\//) n++} END{print n+0}' "$f"
    done | awk '{t+=$1} END{print t+0}')
    printf '%-10s %6d\n' "$(basename "$(dirname "$src")")" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
