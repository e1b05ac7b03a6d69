#!/bin/sh
# Prints the design-size counts ROADMAP aim 2 treats as first-class
# metrics. Printing only: no thresholds, no gate. Run from anywhere;
# compare the output at two commits by hand (or with diff).
set -eu
cd "$(dirname "$0")/.."

# Lines before the first `#[cfg(test)]` of a file.
non_test() {
    awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

# Non-test lines of crate $1.
crate_lines() {
    n=0
    for f in crates/$1/src/*.rs; do
        n=$((n + $(non_test "$f")))
    done
    echo "$n"
}

echo "non-test lines (crates/<c>/src/*.rs, before the first #[cfg(test)]):"
sum=0
for c in common dlm client display server wire; do
    n=$(crate_lines "$c")
    printf '  %-8s %d\n' "$c" "$n"
    sum=$((sum + n))
done
printf '  %-8s %d\n' total "$sum"
# Counted apart, so the six-crate total stays comparable across changes.
for c in schema storage lockmgr; do
    printf '  %-8s %d (not in total)\n' "$c" "$(crate_lines "$c")"
done

echo "lock ranks: $(grep -c 'pub const [A-Z_]*: LockRank = ' crates/common/src/sync.rs)"

spawns=0
for f in crates/dlm/src/*.rs crates/server/src/*.rs crates/client/src/*.rs crates/wire/src/*.rs; do
    n=$(awk '/#\[cfg\(test\)\]/ { exit } /\.spawn\(|thread::spawn\(/ { n++ } END { print n + 0 }' "$f")
    spawns=$((spawns + n))
done
echo "thread-spawn sites (non-test, dlm+server+client+wire): $spawns"

# Variants of `pub enum $2` in file $1: capitalised names at one indent.
variants() {
    awk -v name="$2" '
        $0 ~ "^pub enum " name " \\{" { on = 1; next }
        on && /^}/ { exit }
        on && /^    [A-Z][A-Za-z0-9]*/ { n++ }
        END { print n + 0 }' "$1"
}
echo "protocol variants:"
echo "  DlmEvent   $(variants crates/dlm/src/proto.rs DlmEvent)"
echo "  DlmRequest $(variants crates/dlm/src/proto.rs DlmRequest)"
echo "  Request    $(variants crates/server/src/proto.rs Request)"
echo "  DlcEvent   $(variants crates/client/src/dlc.rs DlcEvent)"

# `pub` fields of `pub struct $2` in file $1.
fields() {
    awk -v name="$2" '
        $0 ~ "^pub struct " name " \\{" { on = 1; next }
        on && /^}/ { exit }
        on && /^    pub [a-z_]+:/ { n++ }
        END { print n + 0 }' "$1"
}
echo "pub config fields:"
total=0
for spec in \
    crates/common/src/overload.rs:OverloadConfig \
    crates/common/src/overload.rs:UpdateLogConfig \
    crates/common/src/overload.rs:DurableLogConfig \
    crates/dlm/src/core.rs:DlmConfig \
    crates/server/src/core.rs:ServerConfig \
    crates/client/src/client.rs:ClientConfig; do
    n=$(fields "${spec%%:*}" "${spec##*:}")
    printf '  %-16s %d\n' "${spec##*:}" "$n"
    total=$((total + n))
done
printf '  %-16s %d\n' total "$total"
# Knob counts outside the total, which stays comparable across changes.
for spec in \
    crates/common/src/backoff.rs:ReconnectPolicy \
    crates/lockmgr/src/table.rs:LockManagerConfig; do
    printf '  %-16s %d (not in total)\n' "${spec##*:}" "$(fields "${spec%%:*}" "${spec##*:}")"
done

echo "invcheck.allow entries: $(grep -cv -e '^#' -e '^[[:space:]]*$' invcheck.allow)"

# Fixed sleeps in the integration tests (ROADMAP item 4 wants fewer).
echo "sleep( lines (tests/*.rs): $(cat tests/*.rs | grep -c 'sleep(')"

echo "document sizes (bytes):"
for d in DESIGN.md EXPERIMENTS.md; do
    printf '  %-16s %d\n' "$d" "$(wc -c < "$d")"
done
