#!/usr/bin/env bash
# Non-test line count of the workspace's library and binary code: every
# .rs file under crates/*/src, each cut where a `#[cfg(test)]` line is
# directly followed by `mod tests` (the unit-test module and everything
# after it). Blank and comment lines count. Prints one number.
#
# Usage: scripts/loc.sh   (from anywhere — cd's to the repo root)

set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { cut = 0; prev = "" }
    cut { next }
    prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ && $0 ~ /^[[:space:]]*mod tests/ {
        cut = 1
        count--
        next
    }
    { count++; prev = $0 }
    END { print count + 0 }
'
