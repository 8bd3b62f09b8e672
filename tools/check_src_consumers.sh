#!/bin/sh
# Fails when a header under src/ has no consumer outside tests/: nothing
# in src/, tools/, bench/, examples/ or perfbench/ includes it except the
# module's own .cpp. Such a module is code no pipeline stage runs; it
# either goes, or its test-only role is named in the allowlist below.
# Wired into CTest (label tier1); skips (exit 77) when git or the
# repository is unavailable (e.g. running from an exported tarball).
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

if ! command -v git >/dev/null 2>&1; then
  echo "check_src_consumers: git not available, skipping"
  exit 77
fi
if ! git -C "$repo_root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  echo "check_src_consumers: not a git work tree, skipping"
  exit 77
fi

# Test-only modules, one line each: module, then why it stays.
allowlist='
sim/reference_model    the record-at-a-time oracle of sim_equivalence_test
analysis/reuse         the LRU stack-distance oracle of ReuseProfileTest
fault/prng_degrade     a generator of the fault matrix (fault_matrix_smoke)
fault/sample_corruption a generator of the fault matrix (fault_matrix_smoke)
fault/io_plan          seeded I/O and process chaos (fault_matrix_smoke, fleet_chaos_test)
'

cd "$repo_root" || exit 1

# "<file> <included path>" for every quoted include outside tests/.
includes=$(git grep --untracked -E '^[[:space:]]*#[[:space:]]*include "' \
             -- src tools bench examples perfbench |
           sed -E 's/^([^:]*):[[:space:]]*#[[:space:]]*include "([^"]*)".*/\1 \2/')

bad=''
for header in $(git ls-files --cached --others --exclude-standard \
                  'src/*.hpp'); do
  [ -f "$header" ] || continue
  module=${header#src/}
  module=${module%.hpp}
  if echo "$allowlist" | grep -q "^$module[[:space:]]"; then
    continue
  fi
  consumers=$(echo "$includes" |
    awk -v inc="$module.hpp" -v own="src/$module.cpp" \
      '$2 == inc && $1 != own { print $1 }')
  if [ -z "$consumers" ]; then
    bad="$bad $module"
  fi
done

if [ -n "$bad" ]; then
  echo "check_src_consumers: FAIL — included only by its own .cpp or tests/:"
  for module in $bad; do echo "  $module"; done
  echo "(delete the module, or allowlist it in $0 with its reason)"
  exit 1
fi

echo "check_src_consumers: OK"
exit 0
