#!/usr/bin/env python3
"""Self-tests of the line counter on synthetic sources.

    python3 scripts/test_loc.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import loc  # noqa: E402

# A test module whose braces hide in strings, raw strings, char literals and
# comments: a counter that matched them would end the module early (and count
# its tail) or swallow `after` (and count too little).
TEST_MODULE = r"""//! Crate docs.

/// Item docs.
pub fn before() -> u32 {
    // a plain comment
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPEN: &str = "{{{";
    const RAW: &str = r#"}" }}"#;
    const BYTES: &[u8] = br"}";
    const CLOSE: char = '}';
    const QUOTE: char = '\'';
    const ESCAPED: char = '\u{7d}';

    // } a comment closing nothing
    /* nor does /* a nested */ } block */
    fn lifetime<'a>(text: &'a str) -> &'a str {
        text
    }

    #[test]
    fn it_works() {
        assert_eq!(before(), 1);
    }
}

pub fn after() -> char {
    '{'
}
"""


class Counting(unittest.TestCase):
    def test_braces_in_strings_chars_and_comments_do_not_end_a_test_module(self):
        # Kept: the crate doc, the item doc, `pub fn before() -> u32 {`, the
        # comment, `1`, `}`, then `after`'s three lines.
        self.assertEqual(loc.count(TEST_MODULE), (6, 2, 1))

    def test_a_single_line_test_item_ends_at_its_semicolon(self):
        source = "#[cfg(test)]\nuse std::collections::{BTreeMap, HashMap};\n#[cfg(test)] const LIMIT: [u8; 2] = [1, 2];\nfn kept() {}\n"
        self.assertEqual(loc.count(source), (1, 0, 0))
        self.assertEqual(loc.count("#[cfg(test)] mod tests;\nfn kept() {}\n"), (1, 0, 0))

    def test_a_test_item_ending_mid_file_keeps_what_follows(self):
        source = "#[cfg(test)]\n#[derive(Debug)]\nstruct Probe {\n    at: u32,\n}\nstruct Kept;\n"
        self.assertEqual(loc.count(source), (1, 0, 0))

    def test_doc_comments_are_told_from_plain_comments(self):
        source = "//! inner doc\n/// outer doc\n//// four slashes: plain\n// plain\n/** block doc */\n/*! inner block doc */\n/* plain block */\n/**/\nfn f() {} // trailing comment: a code line\n\n   \n"
        self.assertEqual(loc.count(source), (1, 4, 4))

    def test_a_cfg_test_inside_a_string_or_comment_removes_nothing(self):
        source = 'const A: &str = "#[cfg(test)]";\n// #[cfg(test)]\nfn kept() {\n    1\n}\n'
        self.assertEqual(loc.count(source), (4, 0, 1))

    def test_files_under_tests_or_benches_and_outside_the_roots_are_not_counted(self):
        self.assertTrue(loc.counted("crates/router/src/handle.rs"))
        self.assertTrue(loc.counted("src/lib.rs"))
        self.assertTrue(loc.counted("examples/router.rs"))
        self.assertFalse(loc.counted("crates/bench/tests/dsig_top.rs"))
        self.assertFalse(loc.counted("crates/core/benches/ndf.rs"))
        self.assertFalse(loc.counted("tests/router_loopback.rs"))
        self.assertFalse(loc.counted("perfbench/src/system.rs"))
        self.assertFalse(loc.counted("crates/router/Cargo.toml"))


class Tally(unittest.TestCase):
    def test_files_belong_to_their_nearest_manifest_and_tests_are_skipped(self):
        files = {
            "crates/router/Cargo.toml": "",
            "crates/router/src/lib.rs": "fn a() {}\n",
            "crates/router/tests/loopback.rs": "fn skipped() {}\n",
            "crates/compat/rand/Cargo.toml": "",
            "crates/compat/rand/src/lib.rs": "/// doc\nfn b() {}\n",
            "src/lib.rs": "// note\n",
            "examples/demo.rs": "fn main() {}\n",
        }
        self.assertEqual(
            loc.tally(files),
            {"crates/router": [1, 0, 0], "crates/compat/rand": [1, 1, 0], "": [1, 0, 1]},
        )

    def test_the_table_has_one_row_per_crate_and_a_signed_total(self):
        base = {"crates/router": [10, 5, 1], "": [3, 0, 0]}
        candidate = {"crates/router": [7, 5, 0], "crates/new": [2, 1, 0], "": [3, 0, 0]}
        table = loc.render(base, candidate).splitlines()
        rows = {line.split("|")[0].strip(): line for line in table[2:] if "|" in line}
        self.assertEqual(set(rows), {"(root)", "router", "new", "total"})
        self.assertEqual(rows["router"].split("|")[3].split(), ["-4", "-3", "+0", "-1"])
        self.assertEqual(rows["new"].split("|")[1].split(), ["0", "0", "0", "0"])
        self.assertEqual(rows["total"].split("|")[1].split(), ["19", "13", "5", "1"])
        self.assertEqual(rows["total"].split("|")[3].split(), ["-1", "-1", "+1", "-1"])


if __name__ == "__main__":
    unittest.main()
