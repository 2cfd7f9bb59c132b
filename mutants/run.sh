#!/usr/bin/env bash
# Run the mutant catalogue (mutants/catalogue.txt) against this tree.
#
#   mutants/run.sh --check    assert that every mutant's `from` text occurs
#                             exactly once in its file; runs no tests
#   mutants/run.sh [ID...]    copy the tree to a scratch directory; run
#                             `cargo test -q --no-fail-fast` there once
#                             unmutated (the baseline), then once per mutant
#                             (all of them, or the 1-based IDs given) with
#                             that one mutant applied; print the tests each
#                             mutant makes fail, and a kill count
#
# The scratch directory is $MUTANTS_WORK if set, else a fresh `mktemp -d`.
# Within one invocation its target/ is shared, so each mutant rebuilds only
# the crate it touches and that crate's dependents.  A test that already fails
# in the baseline is reported there and never counted as a kill.  The exit
# status is 1 if a mutant survives (no test fails) or does not compile.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
catalogue="$root/mutants/catalogue.txt"

# catalogue_tool MODE [ARGS...]: the catalogue parser, in one place.
#   count             number of mutants
#   describe ID       "file: why" for mutant ID
#   check             one line per mutant; fails unless every `from` occurs once
#   apply ID TREE     apply mutant ID inside TREE (fails unless `from` occurs once)
catalogue_tool() {
    perl -e '
        use strict; use warnings;
        my ($catalogue, $mode, @args) = @ARGV;
        open my $fh, "<", $catalogue or die "cannot read $catalogue: $!\n";
        my @mutants;
        while (my $line = <$fh>) {
            chomp $line;
            next if $line =~ /^\s*(#|$)/;
            my @fields = split / \| /, $line, 4;
            die "malformed catalogue line: $line\n" unless @fields == 4;
            s/\\n/\n/g for @fields[1, 2];
            push @mutants, { file => $fields[0], from => $fields[1], to => $fields[2], why => $fields[3] };
        }
        sub slurp { my ($path) = @_; open my $in, "<", $path or die "cannot read $path: $!\n"; local $/; return <$in>; }
        sub occurrences { my ($text, $needle) = @_; my $n = 0; my $at = 0;
            while ((my $hit = index($text, $needle, $at)) >= 0) { $n++; $at = $hit + 1; } return $n; }
        sub mutant { my ($id) = @_; die "no mutant $id\n" unless $id =~ /^\d+$/ && $id >= 1 && $id <= @mutants; return $mutants[$id - 1]; }
        if ($mode eq "count") { print scalar(@mutants), "\n"; }
        elsif ($mode eq "describe") { my $m = mutant($args[0]); print "$m->{file}: $m->{why}\n"; }
        elsif ($mode eq "check") {
            my ($tree) = @args; my $bad = 0;
            for my $id (1 .. @mutants) {
                my $m = $mutants[$id - 1];
                my $n = -e "$tree/$m->{file}" ? occurrences(slurp("$tree/$m->{file}"), $m->{from}) : 0;
                printf "%-4s mutant %d (%s): `from` occurs %d times\n", ($n == 1 ? "ok" : "FAIL"), $id, $m->{file}, $n;
                $bad++ if $n != 1;
            }
            exit($bad ? 1 : 0);
        }
        elsif ($mode eq "apply") {
            my ($id, $tree) = @args; my $m = mutant($id); my $path = "$tree/$m->{file}";
            my $text = slurp($path);
            my $n = occurrences($text, $m->{from});
            die "mutant $id: `from` occurs $n times in $m->{file}\n" unless $n == 1;
            my $at = index($text, $m->{from});
            substr($text, $at, length($m->{from})) = $m->{to};
            open my $out, ">", $path or die "cannot write $path: $!\n"; print $out $text; close $out;
        }
        else { die "unknown mode $mode\n"; }
    ' "$catalogue" "$@"
}

if [[ "${1:-}" == "--check" ]]; then
    catalogue_tool check "$root"
    exit
fi

count=$(catalogue_tool count)
ids=("$@")
if [[ ${#ids[@]} -eq 0 ]]; then
    mapfile -t ids < <(seq 1 "$count")
fi

work=${MUTANTS_WORK:-$(mktemp -d)}
tree="$work/tree"
mkdir -p "$tree"
# The working tree as it is (uncommitted edits included), without build output.
# Extracting with fresh mtimes (-m) makes cargo rebuild every crate once: a
# reused $MUTANTS_WORK may hold artefacts built from a mutant, and a source
# restored with its older mtime would not look newer than them.
tar -C "$root" --exclude=./target --exclude=./.git --exclude=./benchmark/target \
    --exclude=./.bench_build --exclude=./benchmark/out -cf - . | tar -C "$tree" -xmf -

# run_tests LOG: run the suite in the scratch tree; print one line per
# failing test as `<cargo target> :: <test name>`, or UNVIABLE when the tree
# does not compile.
run_tests() {
    local log=$1
    (cd "$tree" && cargo test -q --no-fail-fast >"$log" 2>&1) || true
    if grep -q "^error: could not compile" "$log"; then
        echo "UNVIABLE (does not compile; see $log)"
        return
    fi
    # Failed tests are named by `---- NAME stdout ----`; the target they ran
    # in is named by the `error: test failed, to rerun pass `...`` line that
    # cargo prints after that target finishes.
    perl -ne '
        if (/^---- (.+) stdout ----$/) { push @names, $1; }
        elsif (/^error: test failed, to rerun pass `(.+)`$/) { print "$1 :: $_\n" for @names; @names = (); }
        END { print "(unknown target) :: $_\n" for @names; }
    ' "$log"
}

echo "# scratch tree: $tree"
echo "# baseline (no mutant)"
baseline=$(run_tests "$work/baseline.log")
if [[ -n "$baseline" ]]; then
    echo "$baseline" | sed 's/^/  already failing: /'
else
    echo "  all tests pass"
fi

survivors=0
for id in "${ids[@]}"; do
    file=$(catalogue_tool describe "$id")
    echo "# mutant $id: $file"
    path="$tree/${file%%:*}"
    cp "$path" "$work/original"
    catalogue_tool apply "$id" "$tree"
    killed=$(run_tests "$work/mutant-$id.log" | grep -vxF -f <(printf '%s\n' "$baseline") | sort || true)
    # Restore by rewriting, so the new mtime tells cargo to rebuild the crate.
    cat "$work/original" >"$path"
    if [[ -z "$killed" || "$killed" == UNVIABLE* ]]; then
        echo "  ${killed:-SURVIVED: no test fails}"
        survivors=$((survivors + 1))
    else
        echo "$killed" | sed 's/^/  killed by: /'
        echo "  (killing tests: $(echo "$killed" | wc -l))"
    fi
done
echo "# killed $((${#ids[@]} - survivors)) of ${#ids[@]} mutants"
[[ $survivors -eq 0 ]]
