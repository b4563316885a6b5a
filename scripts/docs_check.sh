#!/bin/sh
# docs_check.sh — the docs job (make docs-check, CI):
#
#   1. gofmt -l must be empty (doc comments are code too);
#   2. go vet ./... must pass;
#   3. every example must build;
#   4. intra-repo paths referenced from README.md and DESIGN.md must
#      exist — renaming a package or deleting a file without sweeping
#      the docs is exactly how DESIGN sections go stale;
#   5. the reverse: every internal/ package must be referenced from
#      README.md or DESIGN.md, so a new subsystem (internal/liveness
#      being the latest) cannot land undocumented;
#   6. every backticked code reference `pkg.Name` or `pkg.Name.Member`
#      in README.md and DESIGN.md whose pkg is a directory under
#      internal/ must resolve with `go doc -u` — deleting a function,
#      field or hook without sweeping the docs fails here;
#   7. every package-level func or method declared in non-test Go under
#      internal/ or cmd/ must be named by some other non-test line
#      (comment lines excluded) anywhere in the repo, perfbench/ and
#      examples/ included — a function only tests reach is dead code.
#      The grep cannot tell methods of different types apart, so a
#      method name two types share counts as used. Allowed: the
#      solo-replay oracle SimulateFaultDetail, the test switch
#      SetDebugChecks, and the checkpoint code (Nearest, ResumeGolden)
#      kept for perfbench's probe until the benchmark stops calling it.
set -eu
cd "$(dirname "$0")/.."
fail=0

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "docs-check: gofmt needed on:"
	echo "$fmt"
	fail=1
fi

go vet ./...

go build ./examples/...
echo "docs-check: examples build"

# Collect referenced repo paths (internal/..., cmd/..., examples/...,
# scripts/... and *.md names), strip trailing punctuation, and verify
# each exists.
refs=$(grep -ohE '\b(internal|cmd|examples|scripts)/[A-Za-z0-9_./-]+|\b[A-Za-z0-9_-]+\.md\b' \
	README.md DESIGN.md | sed 's/[).,:]*$//' | sort -u)
for r in $refs; do
	if [ ! -e "$r" ]; then
		echo "docs-check: dead reference in README/DESIGN: $r"
		fail=1
	fi
done

for d in internal/*/; do
	pkg=${d%/}
	if ! grep -q "$pkg" README.md DESIGN.md; then
		echo "docs-check: package $pkg not referenced from README/DESIGN"
		fail=1
	fi
done

coderefs=$(grep -ohE '`[a-z][a-z0-9]*\.[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?`' \
	README.md DESIGN.md | tr -d '`' | sort -u)
for r in $coderefs; do
	pkg=${r%%.*}
	[ -d "internal/$pkg" ] || continue
	if ! go doc -u "./internal/$pkg" "${r#*.}" >/dev/null 2>&1; then
		echo "docs-check: dead code reference in README/DESIGN: $r"
		fail=1
	fi
done

decls=$(find internal cmd -name '*.go' ! -name '*_test.go' -print |
	xargs grep -hoE '^func (\([^)]*\) )?[A-Za-z_][A-Za-z0-9_]*' |
	sed -E 's/^func (\([^)]*\) )?//')
unused=$(find . -path ./.git -prune -o -name '*.go' ! -name '*_test.go' -print |
	xargs awk -v decls="$decls" \
		-v allow='main init SimulateFaultDetail SetDebugChecks Nearest ResumeGolden' '
	/^[ \t]*\/\// { next }
	{
		n = split($0, w, /[^A-Za-z0-9_]+/)
		delete seen
		for (i = 1; i <= n; i++)
			if (w[i] != "" && !(w[i] in seen)) { seen[w[i]] = 1; lines[w[i]]++ }
	}
	END {
		split(allow, a, " ")
		for (i in a) ok[a[i]] = 1
		n = split(decls, d, "\n")
		for (i = 1; i <= n; i++)
			if (lines[d[i]] == 1 && !(d[i] in ok)) print d[i]
	}' | sort -u)
for f in $unused; do
	echo "docs-check: func $f is named by no non-test line outside its declaration"
	fail=1
done

if [ "$fail" -eq 0 ]; then
	echo "docs-check OK"
fi
exit "$fail"
