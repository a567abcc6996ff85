#!/usr/bin/env python3
"""Self-tests of the public-surface passes on synthetic sources: the by-name
scan on source texts, and the compiler pass on a two-crate workspace that it
checks with `cargo`.

    python3 scripts/test_surface.py
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import surface  # noqa: E402

LIB = r"""//! Crate docs naming `documented_only()`.

use crate::other::imported_only;
pub use crate::other::{reexported_only, AlsoReexported};

/// Calls `in_doc_example()`:
/// ```
/// in_doc_example();
/// ```
pub fn called() -> u32 {
    helper()
}

pub fn helper() -> u32 {
    let _ = "string_only()";
    1
}

pub fn recursive(n: u32) -> u32 {
    if n == 0 { 0 } else { recursive(n - 1) }
}

pub(crate) fn crate_private() {}

pub struct Lonely {
    value: u32,
}

impl Lonely {
    pub fn new() -> Lonely {
        Lonely { value: 0 }
    }

    pub fn at(&self) -> u32 {
        self.value
    }
}

impl std::fmt::Display for Lonely {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", Lonely::new().value)
    }
}

pub const LIMIT: usize = 4;

pub fn documented_only() {}
pub fn in_doc_example() {}
pub fn string_only() {}
pub fn imported_only() {}
pub fn reexported_only() {}
pub fn tested_only() {}
pub fn used_by_bench() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_everything() {
        tested_only();
        let _ = LIMIT;
    }
}
"""

MAIN = r"""fn main() {
    let _ = analog::called();
}
"""

BENCH = r"""fn run() {
    analog::used_by_bench();
}
"""

TWINS = r"""pub struct A;
pub struct B;

impl A {
    pub fn twin(&self) {}
}

impl<T> From<T> for B {
    fn from(_: T) -> B {
        B
    }
}

impl B {
    pub fn twin(&self) {}
}
"""


def crate_of(path):
    return "demo"


def listed(files):
    return {key for key, *_ in surface.scan(files, crate_of)}


class Scan(unittest.TestCase):
    def test_items_without_non_test_uses_are_listed(self):
        files = {
            "crates/demo/src/lib.rs": LIB,
            "crates/demo/src/bin/main.rs": MAIN,
            "perfbench/src/main.rs": BENCH,
            "crates/demo/tests/it.rs": "fn t() { analog::documented_only(); analog::LIMIT; }\n",
        }
        self.assertEqual(
            listed(files),
            {
                # Uses only in comments, doc examples, strings, use lines,
                # test modules and files under tests/ do not count.
                "demo::documented_only",
                "demo::in_doc_example",
                "demo::string_only",
                "demo::imported_only",
                "demo::reexported_only",
                "demo::tested_only",
                "demo::LIMIT",
                # A recursive call is the item's own body.
                "demo::recursive",
                # A type used only inside its own impl blocks, Display's
                # included, has no caller; its methods are named by owner.
                "demo::Lonely",
                "demo::Lonely::at",
            },
        )

    def test_bins_and_the_benchmark_package_count_as_uses(self):
        files = {"crates/demo/src/lib.rs": LIB, "crates/demo/src/bin/main.rs": MAIN, "perfbench/src/main.rs": BENCH}
        found = listed(files)
        self.assertNotIn("demo::called", found)
        self.assertNotIn("demo::used_by_bench", found)
        # `helper` is called from `called`, which is not its own body.
        self.assertNotIn("demo::helper", found)
        # A method's own body is only the method: `Lonely::new` called from
        # Display's impl counts as a use of `new`.
        self.assertNotIn("demo::Lonely::new", found)
        self.assertNotIn("demo::crate_private", found)

    def test_items_defined_in_the_benchmark_package_or_compat_are_not_scanned(self):
        files = {
            "perfbench/src/lib.rs": "pub fn bench_only() {}\n",
            "crates/compat/rand/src/lib.rs": "pub fn shim_only() {}\n",
        }
        self.assertEqual(listed(files), set())

    def test_same_named_items_do_not_count_as_each_others_uses(self):
        # Each `twin` defines the name the other would use; `B` occurs only
        # in impl blocks whose self type it is, a trait impl included.
        found = listed({"crates/demo/src/lib.rs": TWINS})
        self.assertEqual(found, {"demo::A", "demo::B", "demo::A::twin", "demo::B::twin"})

    def test_a_use_anywhere_hides_every_same_named_item(self):
        files = {"crates/demo/src/lib.rs": TWINS, "examples/demo.rs": "fn main() { demo::A.twin(); }\n"}
        self.assertEqual(listed(files), {"demo::B"})

    def test_impl_headers_with_generics_and_paths_name_their_self_type(self):
        code = "impl<'a, T: Into<u8>> crate::x::Wrapper<'a, T> where T: Copy {\n    pub fn inner(&self) {}\n}\n"
        kinds = surface.code_mask(code)
        blocks = surface.impl_blocks(code, kinds)
        self.assertEqual([name for name, *_ in blocks], ["Wrapper"])
        self.assertEqual(surface.definitions(code, kinds, blocks)[0][:3], ("fn", "inner", "Wrapper"))


ALPHA = r"""pub use crate::inner::reexported_only;

pub mod inner {
    pub fn reexported_only() {}
}

pub fn cross_crate() -> usize {
    1
}

pub fn tested_only() {}

pub fn dead_caller() {
    called_by_dead();
}

pub fn called_by_dead() {}

pub struct Used(Vec<u8>);

pub struct Unused(Vec<u8>);

mod seal {
    pub trait Sealed {
        fn called(&self) -> u8;
        fn uncalled(&self) -> u8;
    }

    impl Sealed for u8 {
        fn called(&self) -> u8 {
            *self
        }

        fn uncalled(&self) -> u8 {
            *self
        }
    }
}

pub fn sealed_call() -> u8 {
    use seal::Sealed;
    1u8.called()
}

impl Used {
    pub fn new() -> Used {
        Used(vec![1])
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

impl Unused {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_tested_only() {
        super::tested_only();
    }
}
"""

BETA = r"""fn main() {
    println!("{} {}", alpha::cross_crate() + alpha::Used::new().len(), alpha::sealed_call());
}
"""

WORKSPACE = {
    "Cargo.toml": '[workspace]\nresolver = "2"\nmembers = ["crates/alpha", "crates/beta"]\n',
    "crates/alpha/Cargo.toml": '[package]\nname = "alpha"\nversion = "0.1.0"\nedition = "2021"\n',
    "crates/alpha/src/lib.rs": ALPHA,
    "crates/beta/Cargo.toml": '[package]\nname = "beta"\nversion = "0.1.0"\nedition = "2021"\n\n'
    '[dependencies]\nalpha = { path = "../alpha" }\n',
    "crates/beta/src/main.rs": BETA,
}


class Mark(unittest.TestCase):
    def test_markers_precede_each_non_test_pub_fn_and_bodies_cover_them(self):
        text = "pub fn a() {}\n#[cfg(test)]\nmod tests {\n    pub fn t() {}\n}\nimpl S {\n    pub fn b(&self) {}\n}\n"
        marked, functions = surface.mark(text, "demo")
        self.assertEqual([key for key, *_ in functions], ["demo::a", "demo::S::b"])
        self.assertEqual(marked.count('#[deprecated(note = "surface-probe '), 2)
        for key, start, end, line in functions:
            self.assertTrue(marked[start:end].startswith("pub fn"), key)
            self.assertTrue(marked[start:end].endswith("}"), key)
        self.assertEqual([line for *_, line in functions], [1, 7])

    def test_trait_method_declarations_are_probed_and_their_impls_are_not(self):
        text = (
            "pub(crate) trait Seal {\n    fn a(&self);\n    unsafe fn b(&self) -> u8 {\n        { 1 }\n    }\n}\n"
            "impl Seal for u8 {\n    fn a(&self) {}\n}\n"
            "#[cfg(test)]\nmod tests {\n    trait T {\n        fn t();\n    }\n}\n"
        )
        marked, functions = surface.mark(text, "demo")
        self.assertEqual([key for key, *_ in functions], ["demo::Seal::a", "demo::Seal::b"])
        self.assertEqual([line for *_, line in functions], [2, 3])
        for key, start, end, _ in functions:
            self.assertTrue(marked[start:end].startswith(("fn", "unsafe fn")), key)
            self.assertTrue(marked[start:end].endswith((";", "}")), key)
        self.assertIn('#[deprecated(note = "surface-probe demo::Seal::b")] unsafe fn b', marked)


class Unreached(unittest.TestCase):
    def test_only_chains_from_live_code_or_roots_keep_a_function(self):
        functions = {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0}
        uses = [("a", None), ("b", "a"), ("d", "c"), ("c", "c"), ("e", "e")]
        self.assertEqual(surface.unreached(functions, uses), ["c", "d", "e"])
        self.assertEqual(surface.unreached(functions, uses, roots=["c"]), ["e"])


@unittest.skipUnless(shutil.which("cargo"), "the compiler pass needs cargo")
class CompilerPass(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        top = tempfile.mkdtemp(prefix="surface-test-")
        cls.addClassCleanup(shutil.rmtree, top, ignore_errors=True)
        for path, text in WORKSPACE.items():
            os.makedirs(os.path.join(top, os.path.dirname(path)), exist_ok=True)
            with open(os.path.join(top, path), "w", encoding="utf-8") as out:
                out.write(text)
        checks = (("--workspace", "--lib", "--bins", "--examples"),)
        cls.functions, cls.uses = surface.probe(top, list(WORKSPACE), surface.package_names(top), checks)
        cls.listed = surface.unreached(cls.functions, cls.uses)

    def test_every_non_test_pub_fn_is_probed(self):
        self.assertEqual(
            set(self.functions),
            {
                "alpha::reexported_only",
                "alpha::cross_crate",
                "alpha::tested_only",
                "alpha::dead_caller",
                "alpha::called_by_dead",
                "alpha::Used::new",
                "alpha::Used::len",
                "alpha::Unused::len",
                "alpha::sealed_call",
                "alpha::Sealed::called",
                "alpha::Sealed::uncalled",
            },
        )

    def test_a_cross_crate_use_keeps_a_function(self):
        self.assertNotIn("alpha::cross_crate", self.listed)
        self.assertNotIn("alpha::Used::new", self.listed)

    def test_a_use_only_under_cfg_test_does_not(self):
        self.assertIn("alpha::tested_only", self.listed)

    def test_a_use_only_in_a_pub_use_does_not(self):
        self.assertIn("alpha::reexported_only", self.listed)

    def test_a_function_called_only_by_a_dead_one_is_dead(self):
        self.assertIn("alpha::dead_caller", self.listed)
        self.assertIn("alpha::called_by_dead", self.listed)
        # A root keeps what it calls.
        kept = surface.unreached(self.functions, self.uses, ["alpha::dead_caller"])
        self.assertNotIn("alpha::called_by_dead", kept)

    def test_a_sealed_trait_method_without_a_caller_is_listed(self):
        # rustc's dead_code does not look at a pub trait's methods, even in a
        # private module; the call on a concrete type resolves to the trait's
        # declaration, and the impl's definition is no use.
        self.assertNotIn("alpha::Sealed::called", self.listed)
        self.assertIn("alpha::Sealed::uncalled", self.listed)

    def test_a_dead_len_is_listed_beside_a_used_one(self):
        self.assertNotIn("alpha::Used::len", self.listed)
        self.assertIn("alpha::Unused::len", self.listed)


class Check(unittest.TestCase):
    def test_check_reports_unkept_items_and_stale_keep_entries(self):
        listed_items = [("demo::a", "p", 1, "fn"), ("demo::b", "p", 2, "fn")]
        self.assertEqual(surface.check(listed_items, {"demo::a": "why", "demo::c": "why"}), (["demo::c"], ["demo::b"]))
        self.assertEqual(surface.check(listed_items, {"demo::a": "why", "demo::b": "why"}), ([], []))

    def test_scanned_paths(self):
        self.assertTrue(surface.scanned("crates/router/src/handle.rs"))
        self.assertTrue(surface.scanned("perfbench/src/traced.rs"))
        self.assertTrue(surface.scanned("examples/router.rs"))
        self.assertFalse(surface.scanned("crates/compat/rand/src/lib.rs"))
        self.assertFalse(surface.scanned("tests/router_loopback.rs"))
        self.assertFalse(surface.scanned("crates/bench/tests/dsig_top.rs"))
        self.assertFalse(surface.scanned("scripts/loc.py"))


if __name__ == "__main__":
    unittest.main()
