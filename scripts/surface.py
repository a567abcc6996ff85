#!/usr/bin/env python3
"""Public items that nothing outside tests calls: a by-name scan of the workspace.

Run from anywhere inside the repository:

    python3 scripts/surface.py           # list the items, kept ones marked
    python3 scripts/surface.py --check   # also fail unless the list equals KEEP

Scanned: the `.rs` files of the working tree under `crates/` (except
`crates/compat/`), `src/`, `examples/` and `perfbench/src/`, minus files below
a directory named `tests` or `benches` and minus every `#[cfg(test)]` item
(stripped as `loc.py` strips them). A public item is a `pub fn`, `struct`,
`enum`, `trait`, `type`, `const`, `static` or `union` defined outside
`perfbench/`; `pub(crate)` and narrower, `pub mod`, `pub use`, fields and enum
variants are not items here.

An item is listed when its name occurs as an identifier in no scanned code
except its own definition. What does not count as a use:

- comments (doc comments and their examples included) and string literals;
- `use` declarations, re-exports among them;
- the name where any item defines it (after `fn`, `struct`, ...);
- the item's own body (a recursive call), and for a type, the bodies of the
  `impl` blocks whose self type it is.

Crate sources, bins, examples and the benchmark package all count as uses.
The scan is by name, so an item shares its uses with every same-named item:
it can miss a dead `pub fn new`, but what it lists has no caller at all.

`--check` exits non-zero when a listed item is missing from `KEEP`, or when a
`KEEP` entry is no longer listed. An item is named `crate::Owner::name`
(`Owner` is the self type of the enclosing `impl`, absent for free items); a
`KEEP` entry maps that name to the kept code or paper claim its tests check.
"""

import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import loc  # noqa: E402

DEFINING_ROOTS = ("crates/", "src/", "examples/")
USING_ROOTS = DEFINING_ROOTS + ("perfbench/src/",)
EXCLUDED_ROOTS = ("crates/compat/",)
ITEM_KINDS = ("fn", "struct", "enum", "trait", "type", "const", "static", "union")
TYPE_KINDS = {"struct", "enum", "trait", "type", "union"}
DEFINING_KEYWORDS = set(ITEM_KINDS) | {"mod", "macro_rules"}
USAGE = "usage: python3 scripts/surface.py [--check]"

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
PUB_ITEM = re.compile(
    r"\bpub\s+(?:(?:const|async|unsafe|extern(?:\s+\"[^\"]*\")?)\s+)*"
    rf"({'|'.join(ITEM_KINDS)})\s+(?:mut\s+)?(?:r#)?([A-Za-z_][A-Za-z0-9_]*)"
)
USE_DECL = re.compile(r"\b(?:pub(?:\s*\([^)]*\))?\s+)?use\b")
IMPL = re.compile(r"\bimpl\b")

# Public items that only tests call, each kept because its tests check other
# kept code or a paper claim: `crate::Owner::name` -> the reason.
KEEP = {
    # The paper's two transistor-level circuits and the cross-validation of
    # the behavioural models against them (tests/cross_validation.rs).
    "cut-filters::StateSpaceSim": "RK4 reference that rk4_and_analytic_agree_on_the_paper_stimulus runs",
    "cut-filters::StateSpaceSim::simulate_multitone": "RK4 filter response checked against the analytic "
    "steady-state synthesis capture uses (rk4_and_analytic_agree_on_the_paper_stimulus)",
    "cut-filters::TowThomasDesign::build_netlist": "the op-amp Tow-Thomas CUT netlist whose AC and transient "
    "responses the cross-validation tests compare with BiquadParams",
    "sim-spice::ac_sweep": "AC analysis of the Tow-Thomas netlist, checked against BiquadParams::response "
    "(tow_thomas_ac_response_matches_analytic_across_the_band)",
    "sim-spice::log_frequency_grid": "frequency grid of that AC cross-check",
    "sim-spice::transient": "transient analysis of the Tow-Thomas netlist, checked against the transfer "
    "function (tow_thomas_transient_attenuates_tones_like_the_transfer_function)",
    "sim-spice::TransientConfig::with_record_from": "skips the start-up transient in that transient cross-check",
    "sim-signal::Waveform::from_samples": "wraps the transient simulation's samples for the tone measurement",
    "sim-signal::tone_amplitude_projection": "measures the simulated netlist's tone amplitudes against "
    "BiquadParams::magnitude in the transient cross-check",
    "xy-monitor::netlist_output": "transistor-level Fig. 2 monitor checked against the behavioural "
    "CurrentComparator (netlist_output_matches_behavioural_far_from_boundary)",
    # sim-spice's solver checks.
    "sim-spice::DenseMatrix::identity": "identity system on which identity_solve_returns_rhs checks the LU solve",
    "sim-spice::DenseMatrix::mul_vec": "residual A x - b of solve_roundtrip_residual_is_small, checking the LU solve",
    "sim-spice::Complex::db": "rc_lowpass_rolloff_is_20db_per_decade reads ac_sweep's roll-off in dB with it",
    # Paper claims.
    "xy-monitor::ZonePartition::max_adjacent_hamming": "Fig. 6: adjacent zones differ in one bit "
    "(adjacent_samples_differ_by_at_most_one_bit)",
    "sim-signal::MultitoneSpec::max_frequency": "the paper stimulus tops out at 25 kHz "
    "(paper_default_period_is_200us)",
    # Measurements that check other kept code.
    "sim-signal::tone_amplitude": "measures the multitone stimulus's tone amplitudes "
    "(spectrum_separates_multitone_components)",
    "sim-signal::Waveform::rms": "measures the front-end low-pass filter's noise reduction "
    "(lowpass_reduces_white_noise_variance)",
    "sim-signal::Waveform::resample": "builds the candidate on which normalized_error_rejects_constant_golden "
    "checks normalized_rms_error",
    "dsig-core::TestFlow::evaluate_with_retest": "the retest reference that score::retest's and the serve "
    "tier's retest tests compare against bit for bit",
    "dsig-engine::RetestStats::flips": "retest_determinism checks that averaging flips verdicts, "
    "identically on every target",
    "dsig-obs::SnapshotDiff::monotonicity_violations": "obs_scrape checks that live counters never decrease "
    "between scrapes",
    "dsig-obs::TraceTree": "trace_propagation rebuilds a routed campaign's drained spans into trees",
    "dsig-obs::TraceTree::root_count": "trace_propagation checks each trace has one root",
    "dsig-obs::TraceTree::orphan_count": "trace_propagation checks no span is disconnected",
    "dsig-router::RouterHandle::backend_count": "router tests check the membership after join, leave and kill",
    "dsig-router::RouterHandle::screen_one": "router tests screen through the fleet after kills and rebalances",
    "dsig-serve::ServeHandle::screen_one": "serve tests check one-signature scoring against the batch path",
    "dsig-serve::Client::screen_one": "client tests check one-signature scoring over TCP against direct scoring",
    "dsig-serve::PipelinedClient::start_screen": "mux tests submit pipelined screens out of order",
    "dsig-serve::PipelinedClient::wait_screen": "mux tests check pipelined screens bit for bit",
    "dsig-serve::PipelinedClient::start_retest": "mux_pipelining submits pipelined retests",
    "dsig-serve::PipelinedClient::wait_retest": "mux_pipelining checks pipelined retests bit for bit",
}


# ---- scanning (pure) ----


def code_mask(text):
    """The lexical classes of `text` with every `#[cfg(test)]` item blanked to
    a comment, so only non-test code reads as `loc.CODE`."""
    kinds = loc.classify(text)
    for start, end in loc.test_ranges(text, kinds):
        kinds[start:end] = bytes([loc.COMMENT]) * (end - start)
    return kinds


def code_only(text, kinds):
    """`text` with every non-code character (comments, strings, test items)
    turned into a space, so regexes see code alone at unchanged offsets."""
    return "".join(char if kinds[i] == loc.CODE or char == "\n" else " " for i, char in enumerate(text))


def use_ranges(code, kinds):
    """The `(start, end)` ranges of the `use` declarations."""
    return [(match.start(), loc.item_end(code, kinds, match.end())) for match in USE_DECL.finditer(code)]


def skip_generics(code, at):
    """The index just past a `<...>` group starting at `at` (or `at` itself)."""
    while at < len(code) and code[at].isspace():
        at += 1
    if at >= len(code) or code[at] != "<":
        return at
    depth = 0
    while at < len(code):
        if code[at] == "<":
            depth += 1
        elif code[at] == ">" and code[at - 1] != "-":
            depth -= 1
            if depth == 0:
                return at + 1
        at += 1
    return at


def last_segment(path):
    """The type name of an impl's self type: `a::b::Name<T>` -> `Name`."""
    depth, head = 0, []
    for char in path:
        if char == "<":
            depth += 1
        elif char == ">":
            depth -= 1
        elif depth == 0:
            head.append(char)
    names = IDENT.findall("".join(head))
    return names[-1] if names else None


def impl_blocks(code, kinds):
    """`[(self type name, start, end)]` of the `impl` blocks."""
    blocks = []
    for match in IMPL.finditer(code):
        at = skip_generics(code, match.end())
        brace = code.find("{", at)
        if brace < 0:
            continue
        header = code[at:brace].split(" where ")[0]
        target = re.split(r"\bfor\b", header)[-1]
        name = last_segment(target)
        if name:
            blocks.append((name, match.start(), loc.item_end(code, kinds, brace)))
    return blocks


def definitions(code, kinds, blocks):
    """`[(kind, name, owner, start, end, line)]` of the public items, where
    `owner` is the self type of the enclosing `impl` among `blocks` (or
    `None`)."""
    items = []
    for match in PUB_ITEM.finditer(code):
        kind, name = match.group(1), match.group(2)
        start = match.start()
        owner = None
        for block_name, block_start, block_end in blocks:
            if block_start < start < block_end:
                owner = block_name
        end = loc.item_end(code, kinds, match.end())
        items.append((kind, name, owner, start, end, code.count("\n", 0, start) + 1))
    return items


def identifier_uses(code, excluded):
    """`[(name, offset)]` of the identifiers outside `excluded` ranges that do
    not follow a defining keyword (`fn name`, `struct name`, ...)."""
    uses, previous = [], None
    spans = sorted(excluded)
    k = 0
    for match in IDENT.finditer(code):
        word, at = match.group(), match.start()
        while k < len(spans) and spans[k][1] <= at:
            k += 1
        inside = k < len(spans) and spans[k][0] <= at
        if not inside and previous not in DEFINING_KEYWORDS:
            uses.append((word, at))
        previous = word
    return uses


def scan(files, crate_names):
    """The listed items of `{path: source}`: `[(key, path, line, kind)]`,
    sorted by key. Files the scan does not cover are ignored; `crate_names`
    maps a file path to its crate's name."""
    definitions_by_name, uses_by_name = {}, {}
    for path, text in sorted(files.items()):
        if not scanned(path):
            continue
        kinds = code_mask(text)
        code = code_only(text, kinds)
        skipped = use_ranges(code, kinds)
        for word, at in identifier_uses(code, skipped):
            uses_by_name.setdefault(word, []).append((path, at))
        if not path.startswith(DEFINING_ROOTS):
            continue
        blocks = impl_blocks(code, kinds)
        for kind, name, owner, start, end, line in definitions(code, kinds, blocks):
            own = [(start, end)]
            if kind in TYPE_KINDS:
                own += [(s, e) for block, s, e in blocks if block == name]
            key = "::".join(part for part in (crate_names(path), owner, name) if part)
            definitions_by_name.setdefault(name, []).append((key, path, line, kind, own))
    listed = []
    for name, defined in definitions_by_name.items():
        for key, path, line, kind, own in defined:
            outside = [
                (p, at) for p, at in uses_by_name.get(name, []) if p != path or not any(s <= at < e for s, e in own)
            ]
            if not outside:
                listed.append((key, path, line, kind))
    return sorted(listed)


def check(listed, keep):
    """`(unlisted_keeps, unkept_items)`: KEEP entries the scan no longer
    lists, and listed items KEEP does not name."""
    names = {key for key, *_ in listed}
    return sorted(set(keep) - names), sorted(names - set(keep))


# ---- reading the working tree ----


def scanned(path):
    parts = path.split("/")
    return (
        path.endswith(".rs")
        and path.startswith(USING_ROOTS)
        and not path.startswith(EXCLUDED_ROOTS)
        and not loc.EXCLUDED_DIRS.intersection(parts[:-1])
    )


def package_names(top):
    """A function from a file path to the `name` of its nearest `Cargo.toml`."""
    cache = {}

    def name_of(path):
        parts = path.split("/")[:-1]
        while True:
            directory = "/".join(parts)
            if directory not in cache:
                manifest = os.path.join(top, directory, "Cargo.toml")
                found = None
                if os.path.isfile(manifest):
                    with open(manifest, encoding="utf-8") as text:
                        match = re.search(r'^name\s*=\s*"([^"]+)"', text.read(), re.M)
                    found = match.group(1) if match else None
                cache[directory] = found
            if cache[directory] or not parts:
                return cache[directory] or "?"
            parts.pop()

    return name_of


def main(argv):
    if argv not in ([], ["--check"]):
        print(USAGE, file=sys.stderr)
        return 2
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, check=True, text=True)
    top = top.stdout.strip()
    listed_paths = subprocess.run(
        ["git", "-C", top, "ls-files", "-z", "-co", "--exclude-standard"], capture_output=True, check=True, text=True
    ).stdout.split("\0")
    files = {}
    for path in filter(scanned, listed_paths):
        full = os.path.join(top, path)
        if os.path.isfile(full):
            with open(full, encoding="utf-8", errors="replace") as source:
                files[path] = source.read()
    listed = scan(files, package_names(top))
    for key, path, line, kind in listed:
        mark = "kept" if key in KEEP else "DEAD"
        print(f"{mark:<5} {kind:<7} {key:<56} {path}:{line}")
    print(f"{len(listed)} public items with no use outside tests; {sum(k in KEEP for k, *_ in listed)} kept")
    if not argv:
        return 0
    stale, unkept = check(listed, KEEP)
    for key in stale:
        print(f"KEEP entry no longer listed: {key}", file=sys.stderr)
    for key in unkept:
        print(f"listed but not in KEEP: {key}", file=sys.stderr)
    return 1 if stale or unkept else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
