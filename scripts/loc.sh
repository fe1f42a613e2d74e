#!/usr/bin/env sh
# Non-test Rust lines per crate: every src/**/*.rs counted up to (not
# including) its test module, i.e. the first `#[cfg(test)]` line that is
# directly followed by a `mod` line. A `#[cfg(test)]` on a single item
# (a test-only static, a helper fn) does not end the count. ROADMAP aim 2
# says the line count goes down; this is the number a PR diffs against
# its parent.
#
#   scripts/loc.sh                 one row per crate, then the total
#   scripts/loc.sh FILE.rs ...     one row per named file
set -eu
cd "$(dirname "$0")/.."

# Sum over the files given as arguments. `held` is a `#[cfg(test)]` line
# waiting to learn whether a `mod` follows it.
count() {
    awk 'FNR == 1 { n += held; stop = 0; held = 0 }
         stop { next }
         held && /^[[:space:]]*(pub )?mod[[:space:]]/ { stop = 1; held = 0; next }
         held { n++; held = 0 }
         /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
         { n++ }
         END { print n + held }' "$@"
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
