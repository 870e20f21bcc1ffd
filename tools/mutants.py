"""Mutation check of the fast paths and the rule formulas: each mutant
edits one guard, order or term of ``src/fusekit`` in a temporary copy of
the tree, and the tests named for it must then fail.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones

A mutant is (name, file, old text, new text, tests), each test a file or
a pytest node id.  Its old text must occur exactly once in its file; the
copy gets the new text in its place, and ``pytest -x -q`` runs the named
tests there under the ``mutants`` Hypothesis profile of
``tests/conftest.py``, which skips shrinking: a failing example kills a
mutant, and the smallest one is not needed.  A mutant those tests pass
survives.  Each mutant prints one line: killed, SURVIVED, ERROR when the
tests could not run (pytest exited neither 0 nor 1), or STALE when its
old text is not found once.  The exit status
is 1 unless every mutant is killed.  Standard library only; the tests
run under the interpreter that runs this script, which must have pytest
and hypothesis.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROPERTIES = "tests/test_properties.py"

MUTANTS = (
    # A pooled prefix through a subnormal mass would push products that
    # round to zero into the merged table, where the plain loop skips them.
    ("pool-without-floor", "src/fusekit/classic.py",
     "if join(mask, bound) and p * floor >= _POOL_FLOOR:",
     "if join(mask, bound):",
     (f"{PROPERTIES}::test_merged_walk_pools_the_plain_loops_masses_past_unsafe_prefixes",)),
    # A product of zero weight would land, or conflict, with mass 0.
    ("walk-without-zero-skip", "src/fusekit/classic.py",
     "                if not (w := p * m):\n"
     "                    continue\n"
     "                if k := join(mask, k):",
     "                w = p * m\n"
     "                if k := join(mask, k):",
     (f"{PROPERTIES}::test_product_walk_matches_the_plain_product_loop",)),
    # A conflict's key would miss its prefix's operands past the first.
    ("prefix-key-not-folded", "src/fusekit/classic.py",
     "join(mask, k), r | q)",
     "join(mask, k), r)",
     (PROPERTIES, "tests/test_classic.py")),
    # A conflict's key would miss its last operand.
    ("last-key-not-folded", "src/fusekit/classic.py",
     "yield (*prefix, el), w, r | q",
     "yield (*prefix, el), w, r",
     (PROPERTIES, "tests/test_classic.py")),
    # A key would read the bits above its parts before every operand is
    # numbered, and its part bits would start where the bits above do.
    ("keys-without-registration", "src/fusekit/frame.py",
     "        for el in operands:\n"
     "            self._operand(el)\n",
     "",
     ("tests/test_classic.py",)),
    # A product's form would take the label masks of parts that hold
    # other parts of it.
    ("form-without-above", "src/fusekit/frame.py",
     "minimal = key >> self._shift & ~(key >> 1)",
     "minimal = key >> self._shift",
     ("tests/test_classic.py", PROPERTIES)),
    # A product whose minimal parts hold an atom set of two disjunctive
    # forms would take the memoised form instead of being reduced afresh.
    ("form-without-ambiguity", "src/fusekit/frame.py",
     "if minimal & self._ambiguous:",
     "if False:",
     ("tests/test_classic.py",)),
    # A product of empty operands would take the form of its reduced
    # intersection instead of its operands' joint form.
    ("dsmh-without-empty-flag", "src/fusekit/classic.py",
     "if key & 1:  # some operand is not empty",
     "if True:",
     ("tests/test_classic.py",)),
    # Problems of one frame's labels and model kind would share the frame
    # of the first constraint texts seen.
    ("frame-memo-without-constraints", "src/fusekit/problem.py",
     "def _declared_frame(labels, kind, constraints):\n",
     "def _declared_frame(labels, kind, constraints, first={}):\n"
     "    constraints = first.setdefault((labels, kind), constraints)\n",
     ("tests/test_problem.py",)),
    # Free and Shafer problems of one frame's labels would share the frame
    # of the first model kind seen.
    ("frame-memo-without-kind", "src/fusekit/problem.py",
     "def _declared_frame(labels, kind, constraints):\n",
     "def _declared_frame(labels, kind, constraints, first={}):\n"
     "    kind = first.setdefault((labels, constraints), kind)\n",
     ("tests/test_problem.py",)),
    # A kept term would print a label where its cube negates it, and the
    # negation where it does not.
    ("terms-swap-polarity", "src/fusekit/frame.py",
     '"~" + names[i]) if negated & low',
     '"~" + names[i]) if not negated & low',
     ("tests/test_frame.py",)),
    # A cube's term would be kept under its labels alone, so the cube of
    # those labels with no negation would print the negating cube's term.
    ("terms-without-negations", "src/fusekit/frame.py",
     "term = frame._terms[labels, negated] = (",
     "term = frame._terms[labels, 0] = (",
     ("tests/test_frame.py",)),
    # Every partial would list its operands' displays, also where one
    # was written otherwise.
    ("export-shares-display-list", "src/fusekit/cli.py",
     '"operand_exprs": [texts.get(id(el), d) for el, d in zip(els, shown)]\n'
     "                    if texts and not texts.keys().isdisjoint(map(id, els)) else shown,",
     '"operand_exprs": shown,',
     ("tests/test_cli.py",)),
    # A result would list its landings in the order they landed, which
    # follows the order of the sources.
    ("finish-without-mask-order", "src/fusekit/classic.py",
     "for k, v in sorted(self.acc.items())}",
     "for k, v in self.acc.items()}",
     (PROPERTIES,)),
    # inagaki would list its shares in landing order.
    ("inagaki-without-mask-order", "src/fusekit/classic.py",
     "for k, v in sorted(acc.items()) if k != full}",
     "for k, v in acc.items() if k != full}",
     (PROPERTIES,)),
    # A product that a leaf lands on 0 would land on the empty set instead
    # of conflicting.
    ("walk-lands-empty", "src/fusekit/classic.py",
     "                    if to:\n",
     "                    if to is not None:\n",
     (f"{PROPERTIES}::test_product_walk_matches_the_plain_product_loop",)),
    # A product that a uft attitude claims would land on its intersection
    # instead of taking the attitude's route.
    ("uft-claim-lands", "src/fusekit/uft.py",
     "return p, 0 if att else mask",
     "return p, mask",
     ("tests/test_uft.py",)),
    # A label rule would take interval sources to a frame with no masks.
    ("interval-gate-dropped", "src/fusekit/classic.py",
     "    if frame is INTERVAL_FRAME:\n"
     '        raise RuleError("this rule needs a label frame, not intervals")\n',
     "",
     ("tests/test_special.py::test_label_rules_refuse_interval_sources",)),
    # A declared split of an operand beside total ignorance would charge
    # the ignorance on the two-operand path.
    ("pcr5-two-way-with-ignorance", "src/fusekit/pcr.py",
     "if x.mask != y.mask and 0 < x.mask != full and 0 < y.mask != full:",
     "if x.mask != y.mask and 0 < x.mask and 0 < y.mask:",
     ("tests/test_uft.py::test_a_declared_split_exonerates_ignorance_and_pools_one_element",)),
    # A declared split of an element with itself would book two shares to
    # it instead of one by its pooled masses.
    ("pcr5-two-way-with-one-element", "src/fusekit/pcr.py",
     "if x.mask != y.mask and 0 < x.mask != full and 0 < y.mask != full:",
     "if 0 < x.mask != full and 0 < y.mask != full:",
     ("tests/test_uft.py::test_a_declared_split_exonerates_ignorance_and_pools_one_element",)),
    # An empty operand would draw a share of its product.
    ("pcr5-two-way-with-empty", "src/fusekit/pcr.py",
     "if x.mask != y.mask and 0 < x.mask != full and 0 < y.mask != full:",
     "if x.mask != y.mask and x.mask != full and y.mask != full:",
     (f"{PROPERTIES}::test_two_source_splits_match_the_plain_split",)),
    # Two operands whose weights sum to no more than the zero tolerance
    # would split their product instead of escalating it whole.
    ("two-way-without-floor", "src/fusekit/pcr.py",
     "    total = a + b\n"
     "    if total <= _EPS:\n"
     "        return None\n",
     "    total = a + b\n",
     ("tests/test_uft.py::test_a_weightless_two_operand_conflict_goes_whole_to_the_union",)),
    # PCR3 would split a product of an empty operand between both operands.
    ("pcr3-two-way-with-empty", "src/fusekit/pcr.py",
     "if len(els) == 2 and els[0].mask and els[1].mask:",
     "if len(els) == 2:",
     (f"{PROPERTIES}::test_two_source_splits_match_the_plain_split",)),
    # minC's two parts would not weigh their union.
    ("minc-two-part-without-union", "src/fusekit/pcr.py",
     "recipients = (x, y, ledger.landing(x.mask | y.mask))",
     "recipients = (x, y)",
     ("tests/test_pcr.py", PROPERTIES)),
    # minC would split an unweighed product in halves, whatever its
    # recipient count: two parts have three recipients.
    ("minc-two-part-equal-split-by-two", "src/fusekit/pcr.py",
     "share = p / len(recipients)",
     "share = p / 2",
     ("tests/test_pcr.py::test_minc_equal_split_when_no_recipient_mass",)),
    # minC-b would take version a's recipients for two parts.
    ("minc-two-part-path-in-b", "src/fusekit/pcr.py",
     'if version == "a" and len(parts) == 2:',
     "if len(parts) == 2:",
     ("tests/test_pcr.py::test_minc_versions_differ_when_extra_unions_hold_mass",)),
    # The store's product would list its landings in the order they were
    # pushed, and the next push would sum them in that order.
    ("store-fold-unsorted", "src/fusekit/uft.py",
     "table = {k: p for k, p in sorted(table.items()) if p}",
     "table = {k: p for k, p in table.items() if p}",
     (f"{PROPERTIES}::test_the_store_product_is_the_left_fold_of_conjunctive",)),
    # A stored product whose empty-set products all underflow would hold
    # mass 0 on the empty set, and book it as a zero-mass conflict.
    ("store-fold-keeps-zero", "src/fusekit/uft.py",
     "table = {k: p for k, p in sorted(table.items()) if p}",
     "table = dict(sorted(table.items()))",
     ("tests/test_uft.py",)),
    # An appended state would drop the kept fold, so every fold step would
    # refold all its sources.
    ("fold-slot-not-carried", "src/fusekit/uft.py",
     "self._base, self._folded, self._fold)",
     "self._base, self._folded)",
     ("tests/test_uft.py",)),
    # A kept fold would be resumed as if it covered every source but the
    # last, skipping the sources appended under other rules.
    ("fold-slot-without-count", "src/fusekit/uft.py",
     "rule, self.sources, *fold[1:])",
     "rule, self.sources, len(self.sources) - 1, fold[2])",
     ("tests/test_uft.py", f"{PROPERTIES}::test_the_store_resumes_each_pairwise_fold_as_the_direct_fold")),
    # One rule's fold, or one minC version's, would be resumed by another.
    ("fold-slot-across-rules", "src/fusekit/uft.py",
     "if fold is not None and fold[0] == rule:",
     "if fold is not None:",
     ("tests/test_uft.py", f"{PROPERTIES}::test_the_store_resumes_each_pairwise_fold_as_the_direct_fold")),
    # A negative landing would pass the bulk check of a combination's masses.
    ("landed-without-sign", "src/fusekit/mass.py",
     "if not (math.isfinite(sum(values)) and min(values, default=0.0) >= 0.0):",
     "if not math.isfinite(sum(values)):",
     ("tests/test_mass.py",)),
    # A landing whose mass overflowed would pass the bulk check.
    ("landed-without-finiteness", "src/fusekit/mass.py",
     "if not (math.isfinite(sum(values)) and min(values, default=0.0) >= 0.0):",
     "if not min(values, default=0.0) >= 0.0:",
     ("tests/test_mass.py", "tests/test_cli.py")),
    # A landing of mass 0 would stay a focal element of the result.
    ("landed-keeps-zeros", "src/fusekit/mass.py",
     "if 0.0 in values:",
     "if False:",
     ("tests/test_mass.py",)),
    # Every frame would share one text memo, so a text would take the mask
    # it has on the first frame that parsed it.
    ("parse-memo-across-frames", "src/fusekit/frame.py",
     "        self._parsed = {}\n",
     '        self._parsed = parse_expression_text.__dict__.setdefault("shared", {})\n',
     ("tests/test_frame.py::test_frames_of_one_label_text_parse_by_their_own_model",)),
    # A frame's text memo would keep the elements it parsed, each referring
    # back to the frame, so a frame would be freed only by the collector.
    ("parse-memo-keeps-elements", "src/fusekit/frame.py",
     "                self._parsed[text] = hit\n"
     "        return Element(self, *hit)\n",
     "                self._parsed[text] = hit = Element(self, *hit)\n"
     "        return hit if isinstance(hit, Element) else Element(self, *hit)\n",
     ("tests/test_frame.py::test_a_frame_keeps_nothing_that_refers_back_to_it",
      "tests/test_cli.py::test_fusekit_leaves_nothing_for_the_cyclic_collector")),
    # A parsed source whose total overflows, or that holds an infinite
    # mass, would pass the bulk check.
    ("parsed-source-without-finiteness", "src/fusekit/mass.py",
     "if not (math.isfinite(sum(values)) and min(values, default=0.0) > 0.0):",
     "if not min(values, default=0.0) > 0.0:",
     ("tests/test_problem.py::test_a_label_source_the_constructor_refuses_fails_at_its_line",)),
    # A parsed mass of 0 would stay a focal element of its source.
    ("parsed-source-keeps-zeros", "src/fusekit/mass.py",
     "if not (math.isfinite(sum(values)) and min(values, default=0.0) > 0.0):",
     "if not (math.isfinite(sum(values)) and min(values, default=0.0) >= 0.0):",
     ("tests/test_problem.py::test_a_label_source_drops_zero_masses_and_merges_equal_elements",)),
    # A partial of several shares would export its first share alone.
    ("export-one-share-for-all", "src/fusekit/cli.py",
     "if len(shares) == 1:",
     "if True:",
     ("tests/test_cli.py",)),
)

# Mutants of the rule formulas: each changes a term a rule's definition
# holds.
FORMULA_MUTANTS = (
    # The algebraic T-conorm without its product term leaves [0, 1].
    ("tconorm-algebraic-without-product", "src/fusekit/special.py",
     '"algebraic": lambda x, y: x + y - x * y,',
     '"algebraic": lambda x, y: x + y,',
     (f"{PROPERTIES}::test_tnorm_axioms",)),
    # PCR3 would weigh a repeated operand's column once per occurrence.
    ("pcr-weighted-repeats-operands", "src/fusekit/pcr.py",
     "if el.is_empty or el in seen:",
     "if el.is_empty:",
     ("tests/test_pcr.py",)),
    # PCR5 would charge total ignorance beside the operands that conflict.
    ("pcr5-without-exoneration", "src/fusekit/pcr.py",
     "exonerated = full if any(0 < el.mask != full for el in els) else 0",
     "exonerated = 0",
     ("tests/test_uft.py::test_split_route_exonerates_a_vacuous_third_source",)),
    # PCR5 would weigh equal operands by the last one's mass, not their sum.
    ("pcr5-without-pooling", "src/fusekit/pcr.py",
     "weights[el] = weights.get(el, 0.0) + m._map[el]",
     "weights[el] = m._map[el]",
     (f"{PROPERTIES}::test_uft_split_route_matches_the_plain_pcr5_split",)),
    # A conflict's recipients would include total ignorance, so a vacuous
    # source would change the result.
    ("conflict-operands-without-exoneration", "src/fusekit/classic.py",
     "return narrowed or nonempty",
     "return nonempty",
     ("tests/test_classic.py::test_dubois_prade_vacuous_operand_is_exonerated",)),
    # Inagaki's ignorance would take (1 + p*k12) * k12, not (1 + p*k12 - p) * k12.
    ("inagaki-ignorance-without-p", "src/fusekit/classic.py",
     "out[full] = max(0.0, scale * m_ign + (scale - p) * k12)",
     "out[full] = max(0.0, scale * m_ign + scale * k12)",
     ("tests/test_classic.py::test_inagaki_conserves_mass",)),
    # Dubois-Prade would send a conflict to its first operand, not the union.
    ("dubois-prade-first-operand", "src/fusekit/classic.py",
     "union = ledger.union(_conflict_operands(els, ignorance))",
     "union = ledger.union(_conflict_operands(els, ignorance)[:1])",
     ("tests/test_classic.py::test_dubois_prade_matches_oracle",)),
    # PCR4 would escalate a product whose operands hold no conjunctive
    # mass instead of splitting it by the column sums.
    ("pcr4-without-column-fallback", "src/fusekit/pcr.py",
     "return (_proportional(_weighted(els, lambda el: columns.get(el, 0.0)), p),",
     "return (None,",
     ("tests/test_pcr.py::test_pcr4_falls_back_to_columns_when_conjunctive_is_zero",)),
    # minC would give a product whose recipients hold no mass to the first
    # recipient, not in equal shares.
    ("minc-equal-split-to-first", "src/fusekit/pcr.py",
     "return tuple((el, share) for el in recipients)",
     "return ((recipients[0], p),)",
     ("tests/test_pcr.py::test_minc_takes_parts_by_operand_expression_not_by_element",)),
    # minC-b would take the unions over the last part's hypotheses only.
    ("minc-b-last-part-labels", "src/fusekit/pcr.py",
     "labels += [frame.label(",
     "labels = [frame.label(",
     ("tests/test_pcr.py::test_minc_versions_differ_when_extra_unions_hold_mass",)),
    # PCR2 would count total ignorance among the operands a conflict involves.
    ("pcr2-every-operand-involved", "src/fusekit/pcr.py",
     "involved.update(_conflict_operands(els, ignorance))",
     "involved.update(els)",
     (f"{PROPERTIES}::test_vacuous_source_changes_nothing",)),
    # WAO would hand out the subnormal sources' shortfall instead of losing it.
    ("wao-without-lost-shortfall", "src/fusekit/pcr.py",
     "lost_w = empty_w + short if short > _EPS else empty_w",
     "lost_w = empty_w",
     ("tests/test_uft.py::test_subnormal_sources_book_the_missing_mass_as_lost",)),
    # The bounded T-norm without its floor at 0 leaves [0, 1].
    ("tnorm-bounded-without-floor", "src/fusekit/special.py",
     '"bounded": lambda x, y: max(0.0, x + y - 1.0),',
     '"bounded": lambda x, y: x + y - 1.0,',
     (f"{PROPERTIES}::test_tnorm_axioms",)),
    # The consensus atomicity without its product term.
    ("consensus-atomicity-without-product", "src/fusekit/special.py",
     "\n             - (w1.atomicity + w2.atomicity) * u1 * u2) / den",
     ") / den",
     ("tests/test_special.py::test_consensus_worked_value",)),
    # Zhang's product degree would divide by the union's size.
    ("zhang-product-degree-as-union", "src/fusekit/special.py",
     "/ (x.mask.bit_count() * y.mask.bit_count())),",
     "/ (x.mask | y.mask).bit_count()),",
     ("tests/test_special.py::test_zhang_product_degree",)),
    # improved-dp would divide a disjoint pair out instead of moving it to
    # the union.
    ("improved-dp-divides", "src/fusekit/special.py",
     '"dp": (degree_intersection, "and", _to_union),',
     '"dp": (degree_intersection, "and", Ledger.divide),',
     ("tests/test_special.py::test_improved_dp_worked_values",)),
)

# Retired mutants, whose text the program no longer has:
# - ``book-keys-by-dest``, a share landing as its destination Element
#   instead of the ledger's own for its mask: ``book`` adds to the landed
#   mass by mask and ``finish`` makes every landing, so no share picks an
#   Element.  Its killing test,
#   ``tests/test_pcr.py::test_a_landing_first_reached_by_a_share_carries_its_display_expression``,
#   stays;
# - ``reductions-without-hold``, an operand found by identity but not
#   held, so a later element could reuse its id and read its entry:
#   ``Reductions`` finds an operand by its expression alone.  Its killing
#   test, ``tests/test_classic.py::test_reductions_hold_each_operand_they_find_by_identity``,
#   stays.

# Equivalent mutants, kept out of the list because no test can kill them:
# - keying dsmh's form memo by all of a product's part bits (``key >>
#   self._shift``) instead of its minimal parts' bits: the part bits decide
#   the minimal ones, so every product takes the same form, only with more
#   misses;
# - a PCR3 two-operand guard that also checks that the operands' masks
#   differ and that neither is total ignorance (``ignorance.mask``): PCR3
#   splits only products that conflict, and two non-empty operands that
#   conflict are disjoint, so neither check can fail.  PCR5's guard keeps
#   both because uft's declared pairs split products that do not conflict;
# - ``_safety``'s bound under ``or`` set back to 0, the prefix's own mask:
#   fewer prefixes pool, and the suffix meet it replaced is held by every
#   completion, so each bound is valid and the landed masses agree.

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                               "*.egg-info", "out")


def run(mutant, tree):
    """Apply one mutant to ``tree``, run its tests, restore the file; the verdict."""
    name, file, old, new, tests = mutant
    path = tree / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return "STALE"
    path.write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--hypothesis-profile=mutants", *tests],
                              cwd=tree, env=env, capture_output=True, text=True)
    finally:
        path.write_text(text, encoding="utf-8")
    # pytest exits 1 when a test failed; any other non-zero status means
    # the tests did not run to a verdict, such as a mutant that does not import.
    return {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")


def main(argv):
    mutants = MUTANTS + FORMULA_MUTANTS
    unknown = set(argv) - {m[0] for m in mutants}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in mutants if not argv or m[0] in argv]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        for mutant in chosen:
            start = time.perf_counter()
            verdict = run(mutant, tree)
            failed += verdict != "killed"
            print(f"{verdict:8}  {mutant[0]}  ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
