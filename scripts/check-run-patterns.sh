#!/usr/bin/env bash
# Checks that every -run pattern in .github/workflows/ci.yml selects
# something: each alternative of each `go test ... -run '<regex>' <packages>`
# command must name at least one test, example or fuzz target in that
# command's packages, as `go test -list` reports them. A pattern that names
# nothing passes silently in CI, so a renamed or deleted test would drop out
# of its gate unnoticed.
#
#   bash scripts/check-run-patterns.sh
#
# Run it from the repository root. A command's -tags are passed on to the
# listing. Patterns written to select nothing ('^$') and templated ones
# are skipped. Alternatives are split at every '|', so a
# pattern that groups alternatives in parentheses is refused rather than
# misread. Each command's packages are listed once and every alternative is
# matched against that list with grep -E.
set -euo pipefail

workflow=.github/workflows/ci.yml
status=0
checked=0

while IFS= read -r line; do
	if [[ ! $line =~ -run\ \'([^\']*)\' ]]; then
		echo "check-run-patterns: cannot read the -run pattern of: $line" >&2
		status=1
		continue
	fi
	pattern=${BASH_REMATCH[1]}
	if [[ $pattern == '^$' || $pattern == *'${{'* ]]; then
		continue
	fi
	if [[ $pattern == *[\(\)]* ]]; then
		echo "check-run-patterns: grouped pattern not supported: $pattern" >&2
		status=1
		continue
	fi
	pkgs=()
	tags=()
	if [[ $line =~ -tags[\ =]([^\ ]+) ]]; then
		tags=(-tags "${BASH_REMATCH[1]}")
	fi
	for word in ${line#*go test}; do
		if [[ $word == . || $word == ./* ]]; then
			pkgs+=("$word")
		fi
	done
	if [[ ${#pkgs[@]} -eq 0 ]]; then
		echo "check-run-patterns: no packages on: $line" >&2
		status=1
		continue
	fi
	if ! listed=$(go test "${tags[@]}" -list . "${pkgs[@]}"); then
		echo "check-run-patterns: go test -list . ${pkgs[*]} failed" >&2
		status=1
		continue
	fi
	names=$(grep -E '^(Test|Example|Fuzz)' <<<"$listed" || true)
	IFS='|' read -r -a alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		if ! grep -Eq -- "$alt" <<<"$names"; then
			echo "check-run-patterns: -run alternative '$alt' names no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
done < <(grep -E 'go test .*-run ' "$workflow")

if [[ $status -eq 0 ]]; then
	echo "check-run-patterns: all $checked -run alternatives in $workflow name a test"
fi
exit $status
