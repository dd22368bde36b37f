#!/bin/sh
# Forbidden-API lint, run from the repository root (CI runs it on every
# push; `sh tools/forbidden_api_lint.sh` locally).
#
# Rules:
#
#   unix-select   Unix.select anywhere outside lib/hub/evloop*.
#                 select(2) silently corrupts beyond FD_SETSIZE (1024)
#                 descriptors; lib/hub/evloop is the poll-backed wrapper
#                 that exists so nothing else has to care.  Single-fd
#                 waits in leaf code are tolerable and allowlisted.
#
#   lib-print     Printf.printf / print_endline / print_string /
#                 print_newline / Printf.eprintf / prerr_endline inside
#                 lib/.  Libraries must not write to the process's
#                 stdout/stderr behind the caller's back: observability
#                 goes through Dce_obs (metrics, traces) or a
#                 caller-supplied Format formatter.
#
#   lib-exit      exit / Stdlib.exit inside lib/.  Only executables may
#                 decide the process's fate; a library error is a result
#                 or an exception.
#
#   catch-all     `| exception _`, `| exception e ->` and `with _ ->` /
#                 `with e ->` (any handler that binds every exception)
#                 on the data path: lib/{ot,core,wire,store,netd,hub} and
#                 bin/{dced,p2pedit,loadgen}.ml.  Decoders return typed
#                 errors and Controller.try_receive names the exceptions
#                 semantically invalid input raises; anything else is a
#                 bug, and a catch-all would hide it.  Name the
#                 exceptions you mean.
#
# Allowlist: tools/forbidden_api_allowlist.txt, one "<rule> <path>" per
# line ('#' comments).  An entry exempts the whole file for that rule —
# keep entries rare and justified inline.

set -u
cd "$(dirname "$0")/.."

allowlist=tools/forbidden_api_allowlist.txt
fail=0

allowed() { # rule file
  grep -qE "^$1[[:space:]]+$2\$" "$allowlist" 2>/dev/null
}

report() { # rule matches
  rule=$1
  shift
  [ -n "$*" ] || return 0
  for line in "$@"; do
    file=${line%%:*}
    if ! allowed "$rule" "$file"; then
      echo "forbidden-api [$rule]: $line" >&2
      fail=1
    fi
  done
}

# POSIX sh word-splits on newlines only inside `set --`; collect grep
# output one match per positional parameter.
collect() { # sets $@ from stdin lines
  set --
  while IFS= read -r l; do set -- "$@" "$l"; done
  printf '%s\n' "$@"
}

old_ifs=$IFS
IFS='
'

set -- $(grep -rn 'Unix\.select' lib bin test bench perfbench examples 2>/dev/null \
  | grep -v '^lib/hub/evloop') || true
report unix-select "$@"

set -- $(grep -rnE '(^|[^.[:alnum:]_])(Printf\.(printf|eprintf)|print_endline|print_string|print_newline|prerr_endline)' lib 2>/dev/null) || true
report lib-print "$@"

set -- $(grep -rnE '(^|[^.[:alnum:]_])(Stdlib\.)?exit [0-9]' lib 2>/dev/null) || true
report lib-exit "$@"

data_path="lib/ot lib/core lib/wire lib/store lib/netd lib/hub bin/dced.ml bin/p2pedit.ml bin/loadgen.ml"
# shellcheck disable=SC2086 # word-split the path list on purpose
set -- $(IFS=' '; grep -rnE \
  "(\||with)[[:space:]]*exception[[:space:]]+[a-z_][A-Za-z0-9_']*[[:space:]]*(->|when|\$)|(^|[^[:alnum:]_.])with[[:space:]]+[a-z_][A-Za-z0-9_']*[[:space:]]*(->|when)" \
  $data_path 2>/dev/null) || true
report catch-all "$@"

IFS=$old_ifs

if [ "$fail" -ne 0 ]; then
  echo "forbidden-api lint failed; add a justified entry to $allowlist only if the use is genuinely necessary" >&2
  exit 1
fi
echo "forbidden-api lint clean"
