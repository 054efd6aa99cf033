#!/usr/bin/env bash
# Knob gate.
#
# Lists every runtime knob of the workspace — the environment variables
# read under crates/ and src/ (vendored deps and the standalone benchmark
# excluded) and the `pub` fields of `ExecOptions` — and fails when that
# set differs from the committed list in tools/knobs.txt. Adding or
# removing a knob is a reviewed change: edit the list in the same change,
# with the measurement that needs the new knob.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every `env::var(` / `env::var_os(` call must name its variable with a
# string literal, or the list below could not see it.
calls=$(grep -rhoE 'env::var(_os)?\(' --include='*.rs' crates/ src/ | wc -l | tr -d ' ')
found=$(
    {
        # Environment variables, matched across line breaks.
        find crates src -name '*.rs' -print0 |
            xargs -0 perl -0777 -ne \
                'print "env $1\n" while /env::var(?:_os)?\(\s*"([^"]+)"/g'
        # `pub` fields of `ExecOptions`, up to the struct's closing brace.
        awk '/^pub struct ExecOptions \{/ { inside = 1; next }
             inside && /^\}/ { inside = 0 }
             inside && match($0, /^    pub [a-z_0-9]+:/) {
                 field = substr($0, 9, RLENGTH - 9)
                 print "ExecOptions." field
             }' crates/runtime/src/exec.rs
    } | sort -u
)
literal=$(
    find crates src -name '*.rs' -print0 |
        xargs -0 perl -0777 -ne 'my $c = () = /env::var(?:_os)?\(\s*"[^"]+"/g; print "$c\n"' |
        awk '{ s += $1 } END { print s + 0 }'
)
committed=$(grep -vE '^\s*(#|$)' tools/knobs.txt | sort -u)

echo "knobs: $(echo "${found}" | grep -c .) found, $(echo "${committed}" | grep -c .) committed"
status=0
if [ "${calls}" -ne "${literal}" ]; then
    echo "error: ${calls} env::var calls, only ${literal} name their variable literally." >&2
    status=1
fi
if [ "${found}" != "${committed}" ]; then
    echo "error: the knobs in the source differ from tools/knobs.txt" >&2
    echo "(< source, > tools/knobs.txt):" >&2
    diff <(echo "${found}") <(echo "${committed}") >&2 || true
    echo "A new knob needs a measurement that calls for it; record it in" >&2
    echo "tools/knobs.txt in the same change (and drop deleted ones)." >&2
    status=1
fi
exit "${status}"
