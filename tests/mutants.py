"""A catalogue of mutants that the test suite must kill.

Each mutant breaks one rule the code keeps: it names a source file, one
or more exact snippets of it with their replacements, and the tests that
must fail once the snippets are replaced, each a test file or a pytest
node ID within one (`tests/test_x.py::test_name`). Run from anywhere,
with the interpreter that runs the tests:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named mutants only

The tree (`src`, `tests`, `pyproject.toml`) is copied once per worker to
a temporary directory, `min(2, os.cpu_count())` workers in all, and
compiled there once to bytecode that is checked against each module's
source hash, so a run compiles only the file its mutant changed. The
test modules pytest rewrites are rewritten once per copy, since the runs
keep pytest's rewritten bytecode. pytest checks that bytecode against the
file's size and mtime in seconds, so a mutated file is given an mtime of
its mutant's own, and the restored file its original one. Each worker
runs one mutant at a time in its own copy: the mutant is applied,
`python -m pytest -q -x` runs on its test files with hypothesis's plugin
alone (no other installed plugin is loaded), and the file is restored.
The runs select the hypothesis profile "mutants" (`tests/conftest.py`),
which skips the shrink phase, since a kill needs one failing example, not
a minimal one, and has no deadline or too-slow health check, so a run
slowed by its neighbour cannot count as a kill. Verdicts are printed in
catalogue order.
Each mutant is reported as:

* killed: the tests ran and failed;
* survived: the tests passed, so no test holds the rule;
* stale: a snippet is not found exactly once, so the entry no longer
  matches the code and must be updated;
* broken: pytest exited with another status (an import or collection
  error), which shows nothing about the tests.

The exit status is 0 only when every mutant run is killed. Stdlib only;
this file has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import compileall
import os
import py_compile
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    edits: tuple[tuple[str, str], ...]  # (exact snippet, replacement) pairs
    tests: tuple[str, ...]  # test files or node IDs that must kill it


def _fixture_skips(memo: str) -> tuple[tuple[str, str], ...]:
    """The edit that makes the conftest fixture leave `memo` as the test
    before left it."""
    return (("    for memo in scm_core.MEMOS.values():\n        memo.clear()\n",
             "    for name, memo in scm_core.MEMOS.items():\n"
             f"        if name != {memo!r}:\n            memo.clear()\n"),)


CATALOGUE = (
    Mutant(
        # one walk for every kind: each member's INT_ALL oracle is held
        # beside its worlds pass
        "the INT_ALL column swept in the main walk",
        "src/scmlab/oracle.py",
        (
            ("    missing = [kind for kind, column in columns.items() if column is None and kind != INT_ALL]\n",
             "    missing = [kind for kind, column in columns.items() if column is None]\n"),
            ("    walks = [((INT_ALL,), ())] if INT_ALL in columns and columns[INT_ALL] is None else []\n",
             "    walks = []\n"),
        ),
        ("tests/test_oracle.py::TestOracleIndex::test_xor_int_all_computed_once_across_verify_and_gaps",
         "tests/test_oracle.py::TestOracleIndex::test_xor_int_all_computed_once_across_gaps_and_verify"),
    ),
    Mutant(
        # the worlds pass, or OBS's trie pass, before INT_ALL's caps
        "the trie pass runs before int_all_laws",
        "src/scmlab/oracle.py",
        ((
            "    laws = {}\n"
            "    if INT_ALL in kinds:\n"
            "        laws[INT_ALL] = int_all_laws(scm)\n"
            "    if INT1 in kinds or CF1 in kinds:\n",
            "    laws = {}\n"
            "    if INT1 in kinds or CF1 in kinds:\n",
        ), (
            "        laws[OBS] = {0: observational(scm)}\n",
            "        laws[OBS] = {0: observational(scm)}\n"
            "    if INT_ALL in kinds:\n"
            "        laws[INT_ALL] = int_all_laws(scm)\n",
        )),
        ("tests/test_verify.py::TestRefusesBeforeWork::test_int_all_refuses_before_the_other_kinds_pass",),
    ),
    Mutant(
        "the one-symbol fork comes back",
        "src/scmlab/scm_core.py",
        ((
            "    branches, den = _noise_branches(mech, row, v)\n",
            "    support = mech.noise.support\n"
            "    if len(support) == 1:\n"
            "        if row.reads_noise:\n"
            "            gates.check_noise_symbol(mech.gate, row, support[0])\n"
            "            branches = ((support[0], 1),)\n"
            "        else:\n"
            "            branches = ((0, 1),)\n"
            "        den = 1\n"
            "    else:\n"
            "        branches, den = _noise_branches(mech, row, v)\n",
        ),),
        ("tests/test_kernel.py::test_unvalidated_scm_fails_like_reference",
         "tests/test_kernel.py::test_a_noise_law_that_is_not_a_distribution_is_refused_before_any_work"),
    ),
    Mutant(
        "the repeated-edge check off",
        "src/scmlab/jsonio.py",
        (("    if len(graph.edges) != len(edges):\n"
          "        raise ValueError(f\"edges {edges!r} repeat an edge\")\n", ""),),
        ("tests/test_jsonio.py::TestParamCodec::test_graph_edges_in_any_order_but_each_once",),
    ),
    Mutant(
        "class_membership without validate",
        "src/scmlab/families.py",
        (("    violations = validate(scm)\n", "    violations = []\n"),),
        ("tests/test_gap.py::TestGenericClassEncoding::test_invalid_model_is_no_member",
         "tests/test_families.py::TestClassMembership::test_validate_issues_come_first"),
    ),
    Mutant(
        "_layout caches INT_ALL tables above n=10",
        "src/scmlab/oracle.py",
        (("_LAYOUTS = _Bounded(1 << 17, ", "_LAYOUTS = _Bounded(1 << 18, "),),
        ("tests/test_codec.py::TestKeyTable::test_every_table_up_to_n10_fits_and_n11_does_not",),
    ),
    Mutant(
        "a layout above the bound is kept",
        "src/scmlab/oracle.py",
        (("        _LAYOUTS.keep((kind, n), layout, len(layout))\n",
          "        _LAYOUTS.keep((kind, n), layout)\n"),),
        ("tests/test_codec.py::TestKeyTable::test_tables_above_the_cache_limit_are_not_kept",),
    ),
    Mutant(
        # the laws compared in order, their keys, kind and n not
        "the rebuild check ignores the keys",
        "src/scmlab/decoders.py",
        (("    if compute_oracle(scm, oracle.kind) != oracle:\n",
          "    if [d for _, d in compute_oracle(scm, oracle.kind).components] != [d for _, d in oracle.components]:\n"),),
        ("tests/test_decoders.py::TestRebuildVerdict::test_on_corrupted_components",),
    ),
    Mutant(
        "a public decoder skips its rebuild check",
        "src/scmlab/decoders.py",
        (("    _check_exact_match(oracle, build_tree_scm(tree), NotTreeLikeError)\n", ""),),
        ("tests/test_decoders.py::TestTreeDecoder::test_rejects_corrupted_unprobed_component",),
    ),
    # the kernel's and the codec's fast paths
    Mutant(
        "a twin subtree's codes shifted by the other digit",
        "src/scmlab/scm_core.py",
        (("                    codes += map((-(twin + 1) * place).__add__, codes[start:stop])\n",
          "                    codes += map((-(2 - twin) * place).__add__, codes[start:stop])\n"),),
        ("tests/test_kernel.py::test_shared_dist_counts",
         "tests/test_kernel.py::test_reversed_chain_matches_reference"),
    ),
    # the do() pair of a variable no later step reads, descended once
    Mutant(
        # a step after the next one reads its bit
        "a level merged although a later step reads its bit",
        "src/scmlab/scm_core.py",
        (("    later = [reduce(or_, [step[3] for step in plan.steps[k + 1:]], 0)\n",
          "    later = [reduce(or_, [step[3] for step in plan.steps[k + 2:]], 0)\n"),),
        ("tests/test_kernel.py::test_only_the_do_pairs_of_unread_variables_are_merged",),
    ),
    Mutant(
        "a do(1) half rendered without its mask",
        "src/scmlab/scm_core.py",
        (("                        [*masks, *map(bit.__or__, masks)], picks + high)\n",
          "                        [*masks, *masks], picks + high)\n"),),
        ("tests/test_kernel.py::test_a_render_of_k_masks_equals_k_renders",),
    ),
    Mutant(
        "a do(1) half keyed at its do(0) codes",
        "src/scmlab/scm_core.py",
        (("                down = ([*map(place.__add__, offsets), *map((2 * place).__add__, offsets)],\n",
          "                down = ([*map(place.__add__, offsets), *map(place.__add__, offsets)],\n"),),
        ("tests/test_kernel.py::test_kernel_bytes_match_reference",),
    ),
    Mutant(
        "a merged twin takes the other half's laws",
        "src/scmlab/scm_core.py",
        (("                    down[2].extend(high if twin else picks)\n",
          "                    down[2].extend(picks if twin else high)\n"),),
        ("tests/test_kernel.py::test_only_the_do_pairs_of_unread_variables_are_merged",),
    ),
    Mutant(
        "a wrong do(X_v=1) world offset",
        "src/scmlab/scm_core.py",
        (("        one = bit << 2 * n * (bit.bit_length() - 1)\n",
          "        one = bit << 2 * n * bit.bit_length() - n\n"),),
        ("tests/test_kernel.py::test_every_counterfactual_triple_matches_reference",
         "tests/test_kernel.py::test_reversed_chain_matches_reference"),
    ),
    Mutant(
        "a leaf of mostly one weight taken as uniform",
        "src/scmlab/scm_core.py",
        (("    if weights.count(weight) == len(weights):\n",
          "    if weights.count(weight) * 2 >= len(weights):\n"),),
        ("tests/test_kernel.py::test_masses_and_integer_views_match_reference",
         "tests/test_kernel.py::test_a_uniform_weight_not_in_lowest_terms_matches_reference"),
    ),
    Mutant(
        "the step memo keyed without the variable",
        "src/scmlab/scm_core.py",
        (
            ("    found = memo.get((n, v))\n", "    found = memo.get((n, 0))\n"),
            ("    return memo.keep((n, v), step)\n", "    return memo.keep((n, 0), step)\n"),
        ),
        ("tests/test_families.py::TestBuilders::test_all_trees_share_the_two_point_law",
         "tests/test_families.py::TestBuilders::test_xor_observational_is_uniform"),
    ),
    Mutant(
        "the step-memo bound ignored",
        "src/scmlab/scm_core.py",
        (('mech.__dict__["_steps"] = _Bounded(_STEPS_MAX)', 'mech.__dict__["_steps"] = _Bounded(1 << 30)'),),
        ("tests/test_memos.py::test_the_step_memo_stays_within_its_bound",),
    ),
    Mutant(
        # the trie pass's parity test of a gate that reads noise 1
        "the trie pass's flipped parity unflipped",
        "src/scmlab/scm_core.py",
        (("        return [s if (s & mask).bit_count() & 1 else s | bit for s in states]\n",
          "        return [s | bit if (s & mask).bit_count() & 1 else s for s in states]\n"),),
        ("tests/test_gates.py::test_noise_reading_gates",
         "tests/test_kernel.py::test_extend_sets_the_bit_where_the_gate_gives_1"),
    ),
    Mutant(
        # no gate row is ALL with an inversion or a noise read, so only a
        # direct test of `_extend` reaches this branch
        "ALL with a flip sets the bit where every parent is 1",
        "src/scmlab/scm_core.py",
        (("            return [s if (s & mask) == mask else s | bit for s in states]\n",
          "            return [s | bit if (s & mask) == mask else s for s in states]\n"),),
        ("tests/test_kernel.py::test_extend_sets_the_bit_where_the_gate_gives_1",),
    ),
    Mutant(
        # an extra mechanism past the n variables is ordered as a variable
        "the topo_order slice dropped",
        "src/scmlab/scm_core.py",
        (("    parents = [set(m.parents) for m in scm.mechanisms[:n]]\n",
          "    parents = [set(m.parents) for m in scm.mechanisms]\n"),),
        ("tests/test_scm_core.py::TestValidate::test_more_mechanisms_than_variables",),
    ),
    Mutant(
        # the check parses each distinct text once, and weighs each by its own
        "the mass check reads the first text's Fraction for every text",
        "src/scmlab/oracle.py",
        (("        weight = frac_parse(frac_text)\n", "        weight = frac_parse(next(iter(counts))[0])\n"),),
        ("tests/test_codec.py::test_hand_built_uniform_bodies",
         "tests/test_codec.py::test_hand_built_oracle_out_of_order_with_distinct_equal_masses"),
    ),
    Mutant(
        "parse's uniform regex without its backreference",
        "src/scmlab/oracle.py",
        ((r'    return (re.compile(f"{outcome}({_MASS})(?:\n{outcome}\\1)*"),' + "\n",
          r'    return (re.compile(f"{outcome}({_MASS})(?:\n{outcome}{_MASS})*"),' + "\n"),),
        ("tests/test_codec.py::test_hand_built_uniform_bodies",
         "tests/test_codec.py::test_hand_built_oracle_out_of_order_with_distinct_equal_masses"),
    ),
    # the one oracle serialize keeps for parse to read back (`_WRITTEN`):
    # one mutant per condition of keeping it, and per rule of the memo
    Mutant(
        "serialize keeps an oracle no producer marked",
        "src/scmlab/oracle.py",
        (('    return getattr(oracle, "_canonical", None) == (oracle.kind, oracle.n, oracle.components)\n',
          '    return getattr(oracle, "_canonical", (oracle.kind, oracle.n, oracle.components)) == (\n'
          "        oracle.kind, oracle.n, oracle.components)\n"),),
        ("tests/test_memos.py::test_no_oracle_outside_the_mark_is_served[user-built]",),
    ),
    Mutant(
        "serialize keeps an oracle changed since its mark",
        "src/scmlab/oracle.py",
        (('    return getattr(oracle, "_canonical", None) == (oracle.kind, oracle.n, oracle.components)\n',
          '    return hasattr(oracle, "_canonical")\n'),),
        ("tests/test_memos.py::test_no_oracle_outside_the_mark_is_served[tampered]",),
    ),
    Mutant(
        "the body memo serves a body at another width",
        "src/scmlab/oracle.py",
        (("        elif dist.n_bits != width:\n", "        elif False:\n"),),
        ("tests/test_memos.py::test_a_body_is_served_only_at_its_width",),
    ),
    Mutant(
        "serialize keeps a body rendered from masses",
        "src/scmlab/oracle.py",
        (("            body, width = dist._text(), None\n", "            body = dist._text()\n"),),
        ("tests/test_memos.py::test_a_dist_built_from_masses_never_enters_the_memo",),
    ),
    Mutant(
        "serialize keeps a body longer than the bound",
        "src/scmlab/oracle.py",
        # the oracle counted as at most the bound
        (("        _WRITTEN.keep(len(data), oracle, len(data))\n",
          "        _WRITTEN.keep(len(data), oracle, min(len(data), _WRITTEN.limit))\n"),),
        ("tests/test_memos.py::test_serialize_keeps_no_body_longer_than_the_bound",
         "tests/test_memos.py::test_a_body_longer_than_the_bound_is_not_kept"),
    ),
    Mutant(
        "parse serves a held oracle of the same length",
        "src/scmlab/oracle.py",
        (("    if held is not None and held._bytes == data and _marked(held):\n",
          "    if held is not None and len(held._bytes) == len(data) and _marked(held):\n"),),
        ("tests/test_memos.py::test_an_oracle_of_equal_length_and_other_bytes_is_checked",
         "tests/test_memos.py::test_warm_and_cold_verdicts_agree_on_mutants"),
    ),
    Mutant(
        "serialize keeps a body under another dist",
        "src/scmlab/oracle.py",
        # the oracle kept in the writer's place: one marked with other components
        (("        _WRITTEN.keep(len(data), oracle, len(data))\n",
          "        oracle = _canonical(kind, n, components[::-1])\n"
          "        _WRITTEN.keep(len(data), oracle, len(data))\n"),),
        ("tests/test_memos.py::test_parse_reads_back_the_dists_serialize_wrote",),
    ),
    Mutant(
        "serialize counts a repeated body twice",
        "src/scmlab/oracle.py",
        # the held entry dropped and `held` left as it was, so an oracle
        # written again is counted twice
        (("        _WRITTEN.clear()\n", "        dict.clear(_WRITTEN)\n"),),
        ("tests/test_memos.py::test_a_body_repeated_across_slots_is_counted_once",),
    ),
    Mutant(
        "serialize's body feed never clears at its bound",
        "src/scmlab/oracle.py",
        # stored without `keep`, so an oracle past the bound is held
        (("        _WRITTEN.keep(len(data), oracle, len(data))\n",
          "        _WRITTEN[len(data)] = oracle\n        _WRITTEN.held += len(data)\n"),),
        ("tests/test_memos.py::test_the_memo_stays_within_its_bound",),
    ),
    Mutant(
        "a second oracle held beside the last",
        "src/scmlab/oracle.py",
        (("        _WRITTEN.clear()\n", ""),),
        ("tests/test_memos.py::test_a_body_repeated_across_slots_is_counted_once",
         "tests/test_memos.py::test_the_memo_stays_within_its_bound"),
    ),
    Mutant(
        "the held bytes are returned for an oracle changed since its mark",
        "src/scmlab/oracle.py",
        (('    if marked and "_bytes" in vars(oracle):\n', '    if "_bytes" in vars(oracle):\n'),),
        ("tests/test_memos.py::test_an_oracle_changed_while_held_is_written_anew_and_not_served",),
    ),
    Mutant(
        "parse serves a held oracle changed since its mark",
        "src/scmlab/oracle.py",
        (("    if held is not None and held._bytes == data and _marked(held):\n",
          "    if held is not None and held._bytes == data:\n"),),
        ("tests/test_memos.py::test_an_oracle_changed_while_held_is_written_anew_and_not_served",),
    ),
    Mutant(
        "an oracle dropped from the memo keeps its bytes",
        "src/scmlab/oracle.py",
        (('            vars(held).pop("_bytes", None)\n', "            pass\n"),),
        ("tests/test_memos.py::test_a_body_repeated_across_slots_is_counted_once",),
    ),
    Mutant(
        "a pickle carries the held bytes",
        "src/scmlab/oracle.py",
        (("    def __getstate__(self):", "    def _getstate(self):"),),
        ("tests/test_memos.py::test_a_copy_or_pickle_of_a_held_oracle_writes_its_bytes_and_carries_none",),
    ),
    Mutant(
        "the body memo too small for one xor m=4 oracle",
        "src/scmlab/oracle.py",
        (("_WRITTEN = _Bounded(1 << 21, ", "_WRITTEN = _Bounded(1 << 20, "),),
        ("tests/test_memos.py::test_a_whole_xor_m4_int_all_oracle_is_held",),
    ),
    Mutant(
        "parse keeps the key it cut instead of the layout's",
        "src/scmlab/oracle.py",
        (("        components.append((want, dist))\n", "        components.append((key, dist))\n"),),
        ("tests/test_codec.py::TestLeanRoundTrip::test_parsed_keys_are_the_layouts_strings",),
    ),
    Mutant(
        "serialize drops its last partial block",
        "src/scmlab/oracle.py",
        (("        for start in range(0, len(components), _SERIALIZE_BLOCK):\n",
          "        for start in range(0, len(components) - _SERIALIZE_BLOCK + 1, _SERIALIZE_BLOCK):\n"),),
        ("tests/test_codec.py::TestLeanRoundTrip::test_block_edges_match_the_reference",),
    ),
    Mutant(
        "serialize writes the layout's keys instead of the oracle's",
        "src/scmlab/oracle.py",
        (("    kind, n, components = oracle.kind, oracle.n, oracle.components\n",
          "    kind, n = oracle.kind, oracle.n\n"
          "    components = tuple(zip([key for _, key in _layout(kind, n)],\n"
          "                           [dist for _, dist in oracle.components]))\n"),),
        ("tests/test_codec.py::TestLeanRoundTrip::test_an_oracle_is_written_under_its_own_keys",),
    ),
    Mutant(
        "serialize raises a block's encode error",
        "src/scmlab/oracle.py",
        (('        f"{head}{_block_text(components, None)[0]}\\n".encode("ascii")\n        raise\n',
          "        raise\n"),),
        ("tests/test_codec.py::TestLeanRoundTrip::test_a_non_ascii_key_fails_as_the_whole_text_does",),
    ),
    Mutant(
        "a dist pickled through its slots",
        "src/scmlab/scm_core.py",
        (("    def __reduce__(self):\n", "    def _reduce(self):\n"),),
        ("tests/test_probes.py::test_dists_have_slots_and_copy_whole",),
    ),
    # probes read the integer view, not `mass`
    Mutant(
        "outcomes() read through mass",
        "src/scmlab/scm_core.py",
        (('        return [format(1 << self.n_bits | s, "b")[1:] for s in self._int_view()[0]]\n',
          "        return sorted(self.mass)\n"),),
        ("tests/test_probes.py::test_outcomes_build_no_masses",),
    ),
    Mutant(
        "a probe's shift counted from the low bit",
        "src/scmlab/scm_core.py",
        (("        shift = self.n_bits - 1 - position\n", "        shift = position\n"),),
        ("tests/test_probes.py::test_probes_match_the_reference_on_fixed_positions",),
    ),
    Mutant(
        "a mass-built dist pickled through its Fractions",
        "src/scmlab/scm_core.py",
        (("        return self._from_ints, (self.n_bits, masses)\n",
          "        return self.__class__, (self.n_bits, self.mass)\n"),),
        ("tests/test_probes.py::test_dists_have_slots_and_copy_whole",),
    ),
    Mutant(
        # each distinct mass text is parsed once, and each line reads its own
        "every line of a body reads its first line's mass",
        "src/scmlab/scm_core.py",
        (("        return cells[::2], list(map(fractions.__getitem__, cells[1::2]))\n",
          "        return cells[::2], [fractions[cells[1]]] * len(cells[1::2])\n"),),
        ("tests/test_probes.py::test_probes_match_the_reference_on_fixed_positions",
         "tests/test_scm_core.py::TestObservational::test_biased_source"),
    ),
    Mutant(
        "a dist's repr writes its masses through Fraction's own",
        "src/scmlab/scm_core.py",
        (('        mass = ", ".join([f"{outcome!r}: {frac_repr(m)}" for outcome, m in self.mass.items()])\n',
          '        mass = ", ".join([f"{outcome!r}: {m!r}" for outcome, m in self.mass.items()])\n'),),
        ("tests/test_codec.py::test_a_mass_too_long_to_write_is_a_placeholder_in_a_repr",),
    ),
    Mutant(
        # a tuple of one is "(x,)"
        "a one-mass law's repr without its trailing comma",
        "src/scmlab/scm_core.py",
        (('        probs = ", ".join(map(frac_repr, self.probs)) + "," * (len(self.probs) == 1)\n',
          '        probs = ", ".join(map(frac_repr, self.probs))\n'),),
        ("tests/test_scm_core.py::TestNoiseDist::test_repr_is_the_generated_one",),
    ),
    # the kernel's text memos and the merged do() pairs' renders
    Mutant(
        # the memo of the first width serves every width
        "an outcome memo keyed without its width",
        "src/scmlab/scm_core.py",
        (("    texts = _OUTCOMES.get(n_bits) or", "    texts = next(iter(_OUTCOMES.values()), None) or"),),
        # a uniform leaf's column layout refuses outcome texts of another
        # width; test_codec.py and test_memos.py build their seed oracles
        # on first use, so their runs read killed under it, not broken
        ("tests/test_kernel.py::test_a_render_of_k_masks_equals_k_renders",),
    ),
    Mutant(
        # a width cap that only outcomes of more than 16 bits reach; the
        # probes read the short texts back as the same integers, so
        # bipartite m=3's verify still passes, and only its CF1 bytes differ
        "outcome texts zero-padded to at most 16 bits",
        "src/scmlab/scm_core.py",
        (('    return format(1 << width | state, "b")[1:]  # the top bit keeps the leading zeros\n',
          '    return format(state, f"0{min(width, 16)}b") if width else ""\n'),),
        ("tests/test_oracle.py::TestBodyColumns::test_every_entry_is_the_reference_enumerators_bytes",),
    ),
    Mutant(
        "a mass text not reduced to lowest terms",
        "src/scmlab/scm_core.py",
        (("    g = math.gcd(weight, den)\n", "    g = 1\n"),),
        ("tests/test_codec.py::TestLazyProduct::test_text_memos_stay_within_their_bounds",
         "tests/test_kernel.py::test_a_uniform_weight_not_in_lowest_terms_matches_reference"),
    ),
    Mutant(
        "a text memo keeps its texts when its text dropped every memo",
        "src/scmlab/scm_core.py",
        (("        if family.held == 1:  # the text dropped every memo: this one starts again\n"
          "            self.clear()\n", ""),),
        ("tests/test_codec.py::TestLazyProduct::test_text_memos_stay_within_their_bounds",),
    ),
    Mutant(
        "the do(1) leaf rendered from the unshifted keys",
        "src/scmlab/scm_core.py",
        (('                    laid[column::line] = b"1" * (len(states) << j)\n',
          '                    laid[column::line] = b"0" * (len(states) << j)\n'),
         ("            pieces[::3] = itemgetter(*[bit | key for bit in bits for key in keys])(texts)\n",
          "            pieces[::3] = itemgetter(*[key for bit in bits for key in keys])(texts)\n")),
        ("tests/test_kernel.py::test_a_render_of_k_masks_equals_k_renders",),
    ),
    Mutant(
        # the laws 0 to 2^j, which lack bits[2^j], get its column
        "the column runs start at law 0, not at law 2^j",
        "src/scmlab/scm_core.py",
        (("                    column = len(laid) + 1 + n_bits - bits[1 << j].bit_length()\n",
          "                    column = n_bits - bits[1 << j].bit_length()\n"),
         ('                    laid[column::line] = b"1" * (len(states) << j)\n',
          '                    laid[column:len(laid) // 2:line] = b"1" * (len(states) << j)\n')),
        ("tests/test_kernel.py::test_a_render_of_k_masks_equals_k_renders",),
    ),
    # the kernel's leaf memo
    Mutant(
        "the leaf memo keyed without the weights",
        "src/scmlab/scm_core.py",
        (("    key = (n_bits, *states, *weights)\n", "    key = (n_bits, *states)\n"),),
        ("tests/test_memos.py::test_leaves_of_equal_states_are_kept_apart_by_width_and_weights",),
    ),
    Mutant(
        "the leaf memo keyed without the width",
        "src/scmlab/scm_core.py",
        (("    key = (n_bits, *states, *weights)\n", "    key = (*states, *weights)\n"),),
        ("tests/test_memos.py::test_leaves_of_equal_states_are_kept_apart_by_width_and_weights",),
    ),
    Mutant(
        "INT_ALL leaves enter the leaf memo",
        "src/scmlab/scm_core.py",
        (("        dists += map(_renders(n, states, weights, den, pairs[1]).__getitem__, pairs[2])\n",
          "        dists += map([_dist(n, [s | m for s in states], weights, den)\n"
          "                      for m in pairs[1]].__getitem__, pairs[2])\n"),
         ("                    dists += map(_renders(n, states, weights, den, down[1]).__getitem__, down[2])\n",
          "                    dists += map([_dist(n, [s | m for s in states], weights, den)\n"
          "                                  for m in down[1]].__getitem__, down[2])\n")),
        ("tests/test_memos.py::test_no_int_all_leaf_enters_the_leaf_memo",),
    ),
    Mutant(
        "a marginal enters the leaf memo",
        "src/scmlab/oracle.py",
        (("    _new,\n    _render,\n", "    _new,\n    _dist as _render,\n"),),
        ("tests/test_memos.py::test_no_marginal_enters_the_leaf_memo",),
    ),
    Mutant(
        "a kept leaf bypasses _LEAVES",
        "src/scmlab/scm_core.py",
        (("    dist = _LEAVES.get(key)\n", "    dist = None\n"),),
        ("tests/test_verify.py::TestViewsBuiltOnce::test_verify_and_decode_build_each_view_once",),
    ),
    Mutant(
        "a leaf above the bound reaches the leaf memo",
        "src/scmlab/scm_core.py",
        (("    if len(states) > _LEAVES.limit:\n", "    if False:\n"),),
        ("tests/test_memos.py::test_a_leaf_above_the_bound_is_not_looked_up",),
    ),
    Mutant(
        "a test starts with the leaf memo of the test before",
        "tests/conftest.py",
        _fixture_skips("scm_core._LEAVES"),
        ("tests/test_memos.py::test_each_test_starts_with_an_empty_leaf_memo",),
    ),
    # the kernel's pass memo
    Mutant(
        # one entry for every model of n variables
        "the pass memo keyed without the mechanisms",
        "src/scmlab/scm_core.py",
        (("    key = (scm.n, scm.mechanisms)\n", "    key = scm.n\n"),),
        ("tests/test_memos.py::test_a_fresh_copy_reads_the_held_pass_and_a_changed_model_does_not",),
    ),
    Mutant(
        "INT_ALL passes enter the pass memo",
        "src/scmlab/scm_core.py",
        (("    return _laws(plan, True)\n",
          "    return _PASSES.keep((scm.n, scm.mechanisms, plan.n), _laws(plan, True))\n"),),
        ("tests/test_memos.py::test_no_int_all_pass_enters_the_pass_memo",),
    ),
    Mutant(
        # looked up by its mechanisms alone, a held pass serves a model
        # whose mechanism count `_compile` would refuse
        "a held pass looked up before _compile",
        "src/scmlab/scm_core.py",
        (("    key = (scm.n, scm.mechanisms)\n", "    key = scm.mechanisms\n"),),
        ("tests/test_memos.py::test_a_model_that_fails_to_compile_leaves_no_pass",),
    ),
    Mutant(
        "observational runs the trie beside a held pass",
        "src/scmlab/scm_core.py",
        (("    if (scm.n, scm.mechanisms) in _PASSES:\n", "    if False:\n"),),
        ("tests/test_memos.py::test_obs_alone_reads_a_held_pass",),
    ),
    Mutant(
        "a held pass skips the support-cap re-check",
        "src/scmlab/scm_core.py",
        (("        _check_support(scm, held.support)\n", "        pass\n"),),
        ("tests/test_memos.py::test_a_lowered_support_cap_refuses_a_held_pass",),
    ),
    Mutant(
        "the pass memo keeps without dropping",
        "src/scmlab/scm_core.py",
        (("        _PASSES.keep(key, held, (3 * plan.n + 2) * len(held.states))\n",
          "        _PASSES.setdefault(key, held)\n"),),
        ("tests/test_memos.py::test_the_pass_memo_stays_within_its_bound",),
    ),
    Mutant(
        "a pass above the bound reaches the pass memo",
        "src/scmlab/scm_core.py",
        (("        if size > self.limit:\n            return value\n", ""),),
        ("tests/test_memos.py::test_a_pass_above_the_bound_is_not_kept",),
    ),
    Mutant(
        "the pass memo counts one state a law",
        "src/scmlab/scm_core.py",
        (("        _PASSES.keep(key, held, (3 * plan.n + 2) * len(held.states))\n",
          "        _PASSES.keep(key, held, 3 * plan.n + 1)\n"),),
        ("tests/test_memos.py::test_the_pass_memo_stays_within_its_bound",),
    ),
    Mutant(
        "AND of no parents as 0 in the worlds pass",
        "src/scmlab/scm_core.py",
        (("        if test == gates.ALL:  # AND of nothing is 1\n"
          "            toggles = [toggle ^ column for toggle in toggles]\n", ""),),
        ("tests/test_kernel.py::test_every_counterfactual_triple_matches_reference",
         "tests/test_kernel.py::test_int1_and_cf1_from_one_held_pass_match_reference"),
    ),
    Mutant(
        "AND combined as OR in the worlds pass",
        "src/scmlab/scm_core.py",
        (("    combine = {gates.ANY: or_, gates.ALL: and_, gates.XOR: xor}[test]\n",
          "    combine = {gates.ANY: or_, gates.ALL: or_, gates.XOR: xor}[test]\n"),),
        ("tests/test_kernel.py::test_every_counterfactual_triple_matches_reference",
         "tests/test_kernel.py::test_masses_and_integer_views_match_reference"),
    ),
    Mutant(
        "apply_do takes a variable listed twice",
        "src/scmlab/scm_core.py",
        (("    if len(forced) != len(intervention.assignments):\n", "    if False:\n"),),
        ("tests/test_scm_core.py::TestApplyDo::test_a_variable_listed_twice_is_rejected",),
    ),
    Mutant(
        "a do(X_v) world read off with the stride of the step after v",
        "src/scmlab/scm_core.py",
        (("            first = (True,) * stride",
          "            stride *= len(branches)\n            first = (True,) * stride"),
         ("            rest = den // step_den\n            stride *= len(branches)\n",
          "            rest = den // step_den\n")),
        ("tests/test_kernel.py::test_int1_and_cf1_from_one_held_pass_match_reference",),
    ),
    Mutant(
        "an INT1-only request renders the CF1 triples",
        "src/scmlab/scm_core.py",
        (("        if cf1 and self.cf1 is None:\n", "        if self.cf1 is None:\n"),),
        ("tests/test_verify.py::TestOnePassPerMember::test_one_kind_renders_only_its_own_leaves",),
    ),
    Mutant(
        "a Mechanism's copied state keeps its memo",
        "src/scmlab/scm_core.py",
        (("    def __getstate__(self):\n", "    def _getstate(self):\n"),),
        ("tests/test_memos.py::test_a_copied_mechanism_carries_its_fields_alone",),
    ),
    Mutant(
        "a test starts with the pass memo of the test before",
        "tests/conftest.py",
        _fixture_skips("scm_core._PASSES"),
        ("tests/test_memos.py::test_each_test_starts_with_an_empty_pass_memo",),
    ),
    Mutant(
        "a test starts with the column memo of the test before",
        "tests/conftest.py",
        _fixture_skips("oracle._COLUMNS"),
        ("tests/test_memos.py::test_each_test_starts_with_empty_column_and_fact_memos",),
    ),
    Mutant(
        "a test starts with the probe facts of the test before",
        "tests/conftest.py",
        _fixture_skips("decoders._FACTS"),
        ("tests/test_memos.py::test_each_test_starts_with_empty_column_and_fact_memos",),
    ),
    # the memo registry and the one memo type
    Mutant(
        "a memo left out of the registry",
        "src/scmlab/scm_core.py",
        (('_LEAVES = _Bounded(1 << 14, name="scm_core._LEAVES")\n', "_LEAVES = _Bounded(1 << 14)\n"),),
        ("tests/test_registry.py::test_every_memo_is_registered_under_its_qualified_name",),
    ),
    Mutant(
        "a run keep that skips the clear at the bound",
        "src/scmlab/scm_core.py",
        # an entry that fits alone is stored beside what the memo holds
        (("        if self.held + size > self.limit:\n", "        if size > self.limit:\n"),),
        ("tests/test_registry.py::test_a_run_is_kept_by_the_keep_rule",
         "tests/test_memos.py::test_the_memo_stays_within_its_bound"),
    ),
    Mutant(
        "a maker whose result is not kept",
        "src/scmlab/scm_core.py",
        (("        return self.keep(key, self.make(key))\n", "        return self.make(key)\n"),),
        ("tests/test_registry.py::test_a_maker_memo_keeps_what_it_makes",
         "tests/test_learning.py::TestExactRates::test_exact_rate_and_episodes_share_one_fit_memo"),
    ),
    Mutant(
        "the cross-rung check keyed without the triple",
        "src/scmlab/verify.py",
        (("        key = (id(triple), id(obs_dist), id(do0), id(do1))\n",
          "        key = (id(obs_dist), id(do0), id(do1))\n"),),
        ("tests/test_verify.py::TestMarginalConsistency::test_a_failing_triple_beside_checked_laws_fails",),
    ),
    Mutant(
        "the cross-rung check compares the factual block only",
        "src/scmlab/verify.py",
        (("for k, law in enumerate((obs_dist, do0, do1))", "for k, law in enumerate((obs_dist,))"),),
        ("tests/test_probes.py::test_cross_rung_check_on_unwritable_and_mixed_laws",
         "tests/test_verify.py::TestMarginalConsistency::test_a_failing_triple_beside_checked_laws_fails"),
    ),
    Mutant(
        "the embedding memo keyed by the OBS body alone",
        "src/scmlab/verify.py",
        (("        key = (oracles[OBS].components[0][1]._text(), oracles[INT1].components[0][1]._text())\n",
          "        key = oracles[OBS].components[0][1]._text()\n"),),
        ("tests/test_verify.py::TestObsEmbeds::test_an_int1_leading_with_another_law_fails",),
    ),
    # the family column memo and the decoders' probe facts
    Mutant(
        "a held column read under another caps snapshot",
        "src/scmlab/oracle.py",
        (("        columns[kind] = _COLUMNS.get((family, kind, caps))\n",
          "        columns[kind] = next((column for (f, k, _), column in _COLUMNS.items()\n"
          "                              if (f, k) == (family, kind)), None)\n"),),
        ("tests/test_oracle.py::TestOracleIndex::test_a_changed_or_lowered_cap_sweeps_again_or_refuses",),
    ),
    Mutant(
        "an INT_ALL column read under another caps snapshot",
        "src/scmlab/oracle.py",
        (("        columns[kind] = _COLUMNS.get((family, kind, caps))\n",
          "        columns[kind] = _COLUMNS.get((family, kind, caps)) if kind != INT_ALL else \\\n"
          "            next((column for (f, k, _), column in _COLUMNS.items()\n"
          "                  if (f, k) == (family, kind)), None)\n"),),
        ("tests/test_oracle.py::TestOracleIndex::"
         "test_a_changed_or_lowered_cap_sweeps_int_all_again_or_refuses",),
    ),
    Mutant(
        # every column of the call swept whenever one is missing
        "a held column swept again",
        "src/scmlab/oracle.py",
        (("    missing = [kind for kind, column in columns.items() if column is None and kind != INT_ALL]\n",
          "    missing = [kind for kind in columns if kind != INT_ALL]\n"),),
        ("tests/test_oracle.py::TestOracleIndex::test_a_held_column_is_read_and_only_the_missing_one_swept",),
    ),
    Mutant(
        "an INT_ALL column sized in members instead of bytes",
        "src/scmlab/oracle.py",
        (("tuple(column), _column_bytes(column))\n",
          "tuple(column),\n"
          "                          len(column) if kind == INT_ALL else _column_bytes(column))\n"),),
        ("tests/test_memos.py::test_an_index_above_the_bound_is_returned_but_not_kept",),
    ),
    Mutant(
        "a column sized without its body texts",
        "src/scmlab/oracle.py",
        (("    return 8 * len(column) + 8 * sum(map(len, entries)) + sum(map(len, set().union(*entries)))\n",
          "    return 8 * len(column) + 8 * sum(map(len, entries))\n"),),
        ("tests/test_memos.py::test_an_index_above_the_bound_is_returned_but_not_kept",),
    ),
    Mutant(
        "a sweep that does not share equal body texts",
        "src/scmlab/oracle.py",
        (("            entry = tuple([shared.setdefault(body, body) for body in _bodies(oracles[kind])])\n",
          "            entry = _bodies(oracles[kind])\n"),),
        ("tests/test_oracle.py::TestBodyColumns::test_a_sweep_shares_equal_body_texts",),
    ),
    Mutant(
        "a column entry written without its final LF",
        "src/scmlab/oracle.py",
        (('    return f"{kind} n={n}{text}\\n".encode("ascii")\n',
          '    return f"{kind} n={n}{text}".encode("ascii")\n'),),
        ("tests/test_oracle.py::TestBodyColumns::test_hypothesis_models_group_as_bytes",),
    ),
    Mutant(
        "probe facts keyed without the outcome width",
        "src/scmlab/decoders.py",
        (
            ("    fact = None if body is None else _FACTS.get((dist.n_bits, body))\n",
             "    fact = None if body is None else _FACTS.get(body)\n"),
            ("            _FACTS.keep((dist.n_bits, body), fact, len(body))\n",
             "            _FACTS.keep(body, fact, len(body))\n"),
        ),
        ("tests/test_memos.py::test_probe_facts_are_kept_apart_by_width",),
    ),
    # the Monte-Carlo episodes' fast paths
    Mutant(
        # (n - 1).bit_length() draws fewer bits than randrange for a power of 2
        "a draw below n reads the bits of n - 1",
        "src/scmlab/learning.py",
        (("    k = n.bit_length()\n", "    k = (n - 1).bit_length()\n"),),
        ("tests/test_learning.py::TestStreamSeeding::test_a_draw_below_n_is_randrange",),
    ),
    Mutant(
        "the stream's pre-fed text without its separator",
        "src/scmlab/learning.py",
        (('ascii((master, label))[:-1].encode("ascii") + b", ")',
          'ascii((master, label))[:-1].encode("ascii"))'),),
        ("tests/test_learning.py::TestStreamSeeding::test_run_nfl",
         "tests/test_learning.py::TestStreamSeeding::test_per_query_error"),
    ),
    Mutant(
        "a stream's generator seeded once per call",
        "src/scmlab/learning.py",
        (("            self._rng = _Generator(seed)\n"
          "        else:\n"
          "            self._rng.seed(seed)\n",
          "            self._rng = _Generator(seed)\n"),),
        ("tests/test_learning.py::TestMonteCarlo::test_deterministic_across_runs",
         "tests/test_learning.py::TestStreamSeeding::test_run_nfl"),
    ),
    Mutant(
        "the graph table keyed without the caps snapshot",
        "src/scmlab/learning.py",
        (("    table = _TABLES.get((m, caps))\n", "    table = _TABLES.get(m)\n"),
         ("        _TABLES.keep((m, caps), table, table.limit)\n",
          "        _TABLES.keep(m, table, table.limit)\n")),
        ("tests/test_learning.py::TestLearnerRegistry::test_a_lowered_cap_reads_a_fresh_table",),
    ),
    Mutant(
        "a table slot filled from another mask",
        "src/scmlab/learning.py",
        (("graph_of_mask(m, mask)", "graph_of_mask(m, mask ^ 1)"),),
        ("tests/test_learning.py::TestLearnerRegistry::test_graph_cache_reads_each_graphs_own_law",
         "tests/test_learning.py::TestAgainstReference::test_per_query_error"),
    ),
    Mutant(
        "a table that holds no graph",
        "src/scmlab/learning.py",
        (("        super().__init__(min(1 << (m * m), 1 << 10), lambda mask",
          "        super().__init__(0, lambda mask"),),
        ("tests/test_learning.py::TestLearnerRegistry::test_graph_cache_reads_each_graphs_own_law",
         "tests/test_learning.py::TestLearnerRegistry::test_learners_that_read_no_data_build_no_sampler"),
    ),
    Mutant(
        "the sampler built eagerly",
        "src/scmlab/learning.py",
        (("        self._truths = {}\n", "        self._truths = {}\n        self.sampler\n"),),
        ("tests/test_learning.py::TestLearnerRegistry::test_learners_that_read_no_data_build_no_sampler",),
    ),
    Mutant(
        "each graph table counted as one graph",
        "src/scmlab/learning.py",
        (("        _TABLES.keep((m, caps), table, table.limit)\n",
          "        _TABLES.keep((m, caps), table)\n"),),
        ("tests/test_learning.py::TestLearnerRegistry::test_the_tables_hold_at_most_1024_graphs",),
    ),
    Mutant(
        "the seed check reduced to is None",
        "src/scmlab/learning.py",
        (("    if type(seed) is not int:  # None seeds from OS entropy, derive_seed runs 1.5 as 1\n",
          "    if seed is None:\n"),),
        ("tests/test_learning.py::test_a_seed_that_is_not_an_int_is_refused",),
    ),
    Mutant(
        "the empirical learner handed no dataset",
        "src/scmlab/learning.py",
        (("    reads_data = True\n", "    reads_data = False\n"),),
        ("tests/test_learning.py::TestMonteCarlo::test_pinned_success_counts",
         "tests/test_learning.py::TestAgainstReference::test_run_nfl"),
    ),
    Mutant(
        "sample_obs skips the law for no rows",
        "src/scmlab/learning.py",
        (("    sampler = _sampler(observational(scm))\n"
          "    rows = _draw(sampler, count, random.Random(seed)) if count else ()\n",
          "    rows = _draw(_sampler(observational(scm)), count, random.Random(seed)) if count else ()\n"),),
        ("tests/test_learning.py::TestSampleObs::test_no_rows_still_compute_the_law",),
    ),
    Mutant(
        "the query tally drops its count",
        "src/scmlab/learning.py",
        (("    total = sum([count * abs(Fraction(*answer) - Fraction(*truth))\n",
          "    total = sum([abs(Fraction(*answer) - Fraction(*truth))\n"),),
        ("tests/test_learning.py::TestPerQueryError::test_mc_constant_hits_quarter_exactly",
         "tests/test_learning.py::TestAgainstReference::test_per_query_error"),
    ),
    Mutant(
        "the truth memo read at (j, i)",
        "src/scmlab/learning.py",
        (("        tally[answer, graph.truths(i)[j]] += 1\n",
          "        tally[answer, graph.truths(j)[i]] += 1\n"),),
        ("tests/test_learning.py::TestPerQueryError::test_mc_pinned_with_a_data_reading_predictor",
         "tests/test_learning.py::TestAgainstReference::test_per_query_error"),
    ),
    # the Prüfer codec: both directions on the tree rooted at n
    Mutant(
        "the re-root loop stops one edge short",
        "src/scmlab/prufer.py",
        (("    while node:\n", "    while parent.get(node, 0):\n"),),
        ("tests/test_prufer.py::test_path_example",
         "tests/test_prufer.py::test_codec_matches_reference_on_every_tree_up_to_n6"),
    ),
    # the probes: `marginal`, `prob_bit` and the decoders' reads of them
    Mutant(
        "the one-block marginal shifted by one bit",
        "src/scmlab/oracle.py",
        (("shift, mask = dist.n_bits - 1 - positions[-1], (1 << width) - 1",
          "shift, mask = dist.n_bits - positions[-1], (1 << width) - 1"),),
        ("tests/test_probes.py::test_probes_match_the_reference_on_fixed_positions",
         "tests/test_probes.py::test_probes_match_the_reference"),
    ),
    Mutant(
        "marginal coerces a float position",
        "src/scmlab/oracle.py",
        (("    positions = tuple(positions)\n", "    positions = tuple(int(p) for p in positions)\n"),),
        ("tests/test_probes.py::test_probes_refuse_a_position_or_bit_that_is_not_an_int",),
    ),
    Mutant(
        "a probe takes a position that is not an int",
        "src/scmlab/scm_core.py",
        (("        if type(position) is not int:  # a bool or a float is no position\n"
          "            raise BadPositionError(f\"position must be an int, got {position!r}\")\n", ""),),
        ("tests/test_probes.py::test_probes_refuse_a_position_or_bit_that_is_not_an_int",),
    ),
    Mutant(
        "prob_bit takes a bit other than 0 or 1",
        "src/scmlab/scm_core.py",
        (("if type(bit) is not int or bit not in (0, 1):", "if type(bit) is not int:"),),
        ("tests/test_probes.py::test_probes_match_the_reference",),
    ),
    Mutant(
        "prob_bit takes a bool for a bit",
        "src/scmlab/scm_core.py",
        (("if type(bit) is not int or bit not in (0, 1):", "if bit not in (0, 1):"),),
        ("tests/test_probes.py::test_probes_refuse_a_position_or_bit_that_is_not_an_int",),
    ),
    Mutant(
        "a probe fact counts 1/2 as odd",
        "src/scmlab/decoders.py",
        (("if z not in (ONE, HALF)})", "if z != ONE})"),),
        ("tests/test_probes.py::test_int1_probes_match_the_reference",
         "tests/test_memos.py::test_each_distinct_law_is_walked_once"),
    ),
    Mutant(
        "string_probe reads \"01\" for agreement",
        "src/scmlab/decoders.py",
        (("agree = pair.p(\"00\") + pair.p(\"11\")", "agree = pair.p(\"01\") + pair.p(\"11\")"),),
        ("tests/test_probes.py::test_cf1_agreement_sum_matches_the_reference",
         "tests/test_decoders.py::TestStringDecoder"),
    ),
    Mutant(
        "decode keeps the tree rooted at n",
        "src/scmlab/prufer.py",
        (("    return RootedTree(n, root, _rerooted(parent, root))",
          "    return RootedTree(n, root, parent)"),),
        ("tests/test_prufer.py::test_rooting_changes_only_orientation",
         "tests/test_prufer.py::test_codec_matches_reference_on_every_tree_up_to_n6"),
    ),
    Mutant(
        "encode records the leaf instead of its parent",
        "src/scmlab/prufer.py",
        (("        sequence.append(p)\n", "        sequence.append(leaf)\n"),),
        ("tests/test_prufer.py::test_path_example",
         "tests/test_prufer.py::test_codec_matches_reference_on_every_tree_up_to_n6"),
    ),
    Mutant(
        "encode re-roots its input's own parent map",
        "src/scmlab/prufer.py",
        (("_rerooted(dict(tree.parent), n)", "_rerooted(tree.parent, n)"),),
        ("tests/test_prufer.py::test_path_example",
         "tests/test_prufer.py::test_codec_matches_reference_on_every_tree_up_to_n6"),
    ),
    Mutant(
        "decode takes a value that is not an int",
        "src/scmlab/prufer.py",
        (("    if any(type(x) is not int for x in (n, root, *sequence)):  # a bool is no label\n"
          "        raise InvalidSequenceError(f\"n={n!r}, root={root!r} and labels {sequence!r} must be ints\")\n",
          ""),),
        ("tests/test_prufer.py::test_a_value_that_is_not_an_int_is_refused_first",),
    ),
    Mutant(
        "decode takes a bool for an int",
        "src/scmlab/prufer.py",
        (("type(x) is not int for x", "not isinstance(x, int) for x"),),
        ("tests/test_prufer.py::test_a_value_that_is_not_an_int_is_refused_first",),
    ),
)


def _copy_tree(target: Path) -> None:
    """Copy the tree to `target` and compile it once to bytecode checked by
    source hash: each run imports a module from it unless its source has
    changed, as a mutated file has, which it compiles again."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, target / part, ignore=ignore)
        compileall.compile_dir(target / part, quiet=1,
                               invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH)
    shutil.copy2(ROOT / "pyproject.toml", target / "pyproject.toml")


def _mutated(text: str, mutant: Mutant) -> str | None:
    """The file text with every edit applied, or None if a snippet is not
    found exactly once (before the edits that precede it)."""
    for old, new in mutant.edits:
        if text.count(old) != 1:
            return None
        text = text.replace(old, new)
    return text


def run(mutant: Mutant, tree: Path) -> str:
    """Apply `mutant` in `tree`, run its tests and restore the file; return
    its verdict."""
    path = tree / mutant.file
    original = path.read_text()
    mutated = _mutated(original, mutant)
    if mutated is None:
        return "stale"
    stamp = path.stat()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # keep pytest's rewritten test modules
    path.write_text(mutated)
    try:
        # pytest reads a rewritten module back by size and mtime: each text gets its own mtime
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns + (1 + CATALOGUE.index(mutant)) * 10**9))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-p", "_hypothesis_pytestplugin", "--hypothesis-profile", "mutants", *mutant.tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    finally:
        path.write_text(original)
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    return {0: "survived", 1: "killed"}.get(done.returncode, "broken")


def main(argv: list[str]) -> int:
    names = {mutant.name for mutant in CATALOGUE}
    unknown = [name for name in argv if name not in names]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in CATALOGUE if not argv or mutant.name in argv]
    start = time.perf_counter()
    verdicts = []
    workers = min(2, os.cpu_count() or 1)
    with tempfile.TemporaryDirectory(prefix="scmlab-mutants-") as tmp:
        trees: queue.SimpleQueue = queue.SimpleQueue()  # the copies no worker is using
        for k in range(workers):
            _copy_tree(Path(tmp) / str(k))
            trees.put(Path(tmp) / str(k))

        def timed(mutant: Mutant) -> tuple[str, float]:
            tree = trees.get()
            try:
                began = time.perf_counter()
                return run(mutant, tree), time.perf_counter() - began
            finally:
                trees.put(tree)

        with ThreadPoolExecutor(workers) as pool:
            for mutant, (verdict, seconds) in zip(chosen, pool.map(timed, chosen)):
                verdicts.append(verdict)
                print(f"{verdict:9} {seconds:6.1f} s  {mutant.name}", flush=True)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(verdicts)} killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
