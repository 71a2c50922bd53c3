#!/usr/bin/env bash
# Every command-line binary must reject a mistyped flag cleanly: a
# nonzero exit status that is not a signal (SIGABRT from
# std::terminate shows as 134), and no "terminate called" on stderr.
#
#   tests/check_bad_flag.sh BIN...
set -u
fail=0
for bin in "$@"; do
    name=$(basename "$bin")
    err=$("$bin" --bogus-flag 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -eq 0 ] || [ "$rc" -ge 128 ] ||
        grep -q "terminate called" <<<"$err"; then
        echo "FAIL: $name --bogus-flag exited $rc"
        printf '%s\n' "$err" | head -5
        fail=1
    else
        echo "ok: $name --bogus-flag exited $rc"
    fi
done
exit "$fail"
