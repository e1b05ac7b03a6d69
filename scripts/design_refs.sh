#!/bin/sh
# Checks that every "DESIGN(.md) § N" cited in a tracked file (ranges and
# lists such as "§§ 13–14, 16" included) names a "## N." heading of
# DESIGN.md. The history documents are skipped. Exits 1 and lists each
# citation that does not resolve. Run from anywhere.
set -eu
cd "$(dirname "$0")/.."

cite='DESIGN(\.md)? *§(§)? *[0-9]+((–|-)[0-9]+)?(, *(§ *)?[0-9]+((–|-)[0-9]+)?)*'
bad=$(git grep -nE "$cite" -- . ':!DESIGN.md' ':!CHANGES.md' ':!EXPERIMENTS.md' \
    ':!ROADMAP.md' ':!ISSUE*' ':!REVIEW*' |
    while IFS= read -r hit; do
        # Drop "path:line:", then check every number the citation names,
        # each range "a–b" expanded to a, a+1, ..., b.
        for span in $(printf '%s\n' "${hit#*:*:}" | grep -oE "$cite" |
            sed 's/–/-/g' | grep -oE '[0-9]+(-[0-9]+)?'); do
            for n in $(seq "${span%-*}" "${span#*-}"); do
                grep -q "^## $n\. " DESIGN.md || echo "$hit (§ $n)"
            done
        done
    done)
if [ -n "$bad" ]; then
    echo "citations of DESIGN.md sections that do not exist:"
    echo "$bad"
    exit 1
fi
