#!/usr/bin/env sh
# Non-test Rust lines per crate: every src/**/*.rs counted up to (not
# including) its first `#[cfg(test)]`. ROADMAP aim 2 says the line count
# goes down; this is the number a PR diffs against its parent.
#
#   scripts/loc.sh                 one row per crate, then the total
#   scripts/loc.sh FILE.rs ...     one row per named file
set -eu
cd "$(dirname "$0")/.."

# Sum over the files given as arguments.
count() {
    awk 'FNR == 1 { stop = 0 }
         /#\[cfg\(test\)\]/ { stop = 1 }
         !stop { n++ }
         END { print n + 0 }' "$@"
}

if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        printf '%7d  %s\n' "$(count "$file")" "$file"
    done
    exit 0
fi

total=0
for src in crates/*/src src; do
    # shellcheck disable=SC2046 # source paths hold no spaces
    lines=$(count $(find "$src" -name '*.rs'))
    printf '%7d  %s\n' "$lines" "${src%/src}"
    total=$((total + lines))
done
printf '%7d  total\n' "$total"
