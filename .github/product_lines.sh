#!/bin/sh
# Prints the product line count: each crates/*/src/**.rs file down to its
# first line-leading `#[cfg(test)]`, per crate and in total. Given a git
# ref, also prints the counts at that ref and the difference (this tree
# minus the ref). Gates nothing.
#
#   sh .github/product_lines.sh [<ref>]      # from the repository root
set -eu

count() {
  total=0
  for crate in "$1"/crates/*/; do
    n=0
    for file in $(find "$crate/src" -name '*.rs'); do
      n=$((n + $(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")))
    done
    echo "$(basename "$crate") $n"
    total=$((total + n))
  done
  echo "total $total"
}

here=$(count .)
echo "$here"
[ $# -eq 0 ] && exit 0

tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
git archive "$1" crates | tar -x -C "$tree"
there=$(count "$tree")
echo "at $1:"
echo "$there"
echo "difference:"
printf '%s\n' "$there" - "$here" | awk '
  $0 == "-" { here = 1; next }
  !here { at[$1] = $2; next }
  { printf "%s %+d\n", $1, $2 - at[$1] }'
