#!/usr/bin/env python3
"""Public items that nothing outside tests uses: a compiler pass for functions
and a by-name scan for the other items.

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

Functions: the compiler pass. In a temporary copy of the working tree's
files, every non-test `pub fn` and every method declared in a non-test
`trait` block (of any visibility, sealed traits included) gets
`#[deprecated(note = "surface-probe <key>")]`, and `cargo check` runs on the
workspace's lib, bin and example targets and on the benchmark package, with
lints capped at warn. Every deprecation warning is a type-checked use of a
probed function; a call that resolves to a trait method, on a concrete type,
a generic or a trait object, warns at the trait's declaration, while an
`impl` of the method does not warn. Warnings inside
`use` declarations are not uses. A warning inside the body of a probed
function (the innermost, following macro expansions out to their call sites)
is that function's use; any other warning is a use by live code. A function
is listed when no chain of uses reaches it from live code, KEEP's functions
counting as live. Dead callers therefore do not keep their callees alive,
and a dead `len` is listed even when another type's `len` is used.

Other items: a by-name scan. Such an item is listed when its name occurs as
an identifier in no scanned code except its own definition. What does not
count as a use:

- comments (doc comments and their examples included) and string literals;
- `use` declarations, re-exports among them;
- the name where any item defines it (after `fn`, `struct`, ...);
- the item's own body, and for a type, the bodies of the `impl` blocks whose
  self type it is.

The scan is by name, so an item shares its uses with every same-named item:
what it lists has no caller at all.

`--check` exits non-zero when a listed item is missing from `KEEP`, or when a
`KEEP` entry is one that the passes would not list without it. An item is
named `crate::Owner::name` (`Owner` is the self type of the enclosing `impl`,
absent for free items); a `KEEP` entry maps that name to the kept code, paper
claim or lint its tests or presence serve.
"""

import collections
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

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
TRAIT = re.compile(r"\btrait\s+([A-Za-z_][A-Za-z0-9_]*)")
TRAIT_FN = re.compile(r"\b(?:(?:const|async|unsafe|extern(?:\s+\"[^\"]*\")?)\s+)*fn\s+([A-Za-z_][A-Za-z0-9_]*)")

PROBE = "surface-probe"
PROBE_KEY = re.compile(PROBE + r" ([\w:-]+)")
# `cargo check` arguments for the non-test targets: the workspace's, then the
# benchmark package's (a workspace of its own).
CHECKS = (
    ("--workspace", "--lib", "--bins", "--examples"),
    ("--manifest-path", "perfbench/Cargo.toml"),
)

# Public items that only tests call, each kept because its tests check other
# kept code or a paper claim, or because a lint requires it:
# `crate::Owner::name` -> the reason.
LEN_TWIN = "clippy's len_without_is_empty: the twin of a len that non-test code calls"
KEEP = {
    # The paper's two transistor-level circuits and the cross-validation of
    # the behavioural models against them (tests/cross_validation.rs).
    "cut-filters::StateSpaceSim": "RK4 reference that rk4_and_analytic_agree_on_the_paper_stimulus runs",
    "cut-filters::StateSpaceSim::new": "builds that RK4 reference",
    "cut-filters::StateSpaceSim::simulate_multitone": "RK4 filter response checked against the analytic "
    "steady-state synthesis capture uses (rk4_and_analytic_agree_on_the_paper_stimulus)",
    "cut-filters::BiquadParams::magnitude": "the analytic gain the AC and transient cross-checks compare "
    "the simulated Tow-Thomas netlist against",
    "cut-filters::TowThomasDesign::build_netlist": "the op-amp Tow-Thomas CUT netlist whose AC and transient "
    "responses the cross-validation tests compare with BiquadParams",
    "sim-spice::ac_sweep": "AC analysis of the Tow-Thomas netlist, checked against BiquadParams::response "
    "(tow_thomas_ac_response_matches_analytic_across_the_band)",
    "sim-spice::AcResult::phasor": "reads the swept node phasors in that AC cross-check",
    "sim-spice::log_frequency_grid": "frequency grid of that AC cross-check",
    "sim-spice::transient": "transient analysis of the Tow-Thomas netlist, checked against the transfer "
    "function (tow_thomas_transient_attenuates_tones_like_the_transfer_function)",
    "sim-spice::TransientConfig::new": "configures that transient cross-check",
    "sim-spice::TransientConfig::with_record_from": "skips the start-up transient in that transient cross-check",
    "sim-spice::TransientResult::times": "the simulated time axis the transient cross-check measures tones on",
    "sim-spice::TransientResult::voltage": "the simulated node trace the transient cross-check measures",
    "sim-signal::Waveform::from_samples": "wraps the transient simulation's samples for the tone measurement",
    "sim-signal::tone_amplitude_projection": "measures the simulated netlist's tone amplitudes against "
    "BiquadParams::magnitude in the transient cross-check",
    "xy-monitor::netlist_output": "transistor-level Fig. 2 monitor checked against the behavioural "
    "CurrentComparator (netlist_output_matches_behavioural_far_from_boundary)",
    # sim-spice's solver checks.
    "sim-spice::DenseMatrix::identity": "identity system on which identity_solve_returns_rhs checks the LU solve",
    "sim-spice::DenseMatrix::mul_vec": "residual A x - b of solve_roundtrip_residual_is_small, checking the LU solve",
    "sim-spice::Complex::db": "rc_lowpass_rolloff_is_20db_per_decade reads ac_sweep's roll-off in dB with it",
    "sim-spice::OperatingPoint::layout": "resistive_divider reads the source current from its MNA branch unknown",
    # Paper claims.
    "xy-monitor::ZonePartition::max_adjacent_hamming": "Fig. 6: adjacent zones differ in one bit "
    "(adjacent_samples_differ_by_at_most_one_bit)",
    "xy-monitor::CurrentComparator::widths": "Table I: the monitors' published transistor widths "
    "(table_has_six_rows_with_published_widths, comparators_build_for_all_rows)",
    "sim-signal::MultitoneSpec::max_frequency": "the paper stimulus tops out at 25 kHz "
    "(paper_default_period_is_200us)",
    # Measurements and fixtures that check other kept code.
    "sim-signal::tone_amplitude": "measures the multitone stimulus's tone amplitudes "
    "(spectrum_separates_multitone_components)",
    "sim-signal::MultitoneSpec::new": "builds the one- and two-tone stimuli on which the spectrum, synthesis "
    "and filter-response tests check kept code",
    "sim-signal::Waveform::rms": "measures the front-end low-pass filter's noise reduction "
    "(lowpass_reduces_white_noise_variance)",
    "sim-signal::Waveform::mean": "measures DC levels: the noise model's offset and the biquad's DC gain",
    "sim-signal::Waveform::map": "builds the distorted candidate of the straight-line baseline's detection test",
    "sim-signal::Waveform::resample": "builds the candidate on which normalized_error_rejects_constant_golden "
    "checks normalized_rms_error",
    "xy-monitor::ProcessVariation::none": "zero_variation_reproduces_nominal checks sample_comparator against "
    "the nominal Table I devices",
    "dsig-core::StimulusBank::len": "the bank's reuse and eviction tests count its retained stimuli",
    "dsig-core::TestFlow::evaluate_with_retest": "the retest reference that score::retest's and the serve "
    "tier's retest tests compare against bit for bit",
    "dsig-engine::RetestStats::flips": "retest_determinism checks that averaging flips verdicts, "
    "identically on every target",
    "dsig-serve::GoldenStore::len": "the store tests count records to check that characterize reuses a "
    "stored golden and that insert replaces",
    # The body codecs every frame and file nests: round trips, golden bytes
    # and mutation (tests/codec_robustness.rs, tests/obs_scrape.rs).
    "dsig-core::Signature::to_bytes": "encodes the DSG2 signature body that every signature-carrying frame "
    "nests, for the codec's round-trip, golden-byte and mutation tests",
    "dsig-core::Signature::from_bytes": "decodes that body in the same tests",
    "dsig-obs::MetricsSnapshot::to_bytes": "encodes the DSMS body the metrics scrape nests, for its codec tests",
    "dsig-obs::MetricsSnapshot::from_bytes": "decodes that body in the same tests",
    "dsig-obs::TraceLog::to_bytes": "encodes the DSTL body the trace drain nests, for its codec tests",
    "dsig-obs::TraceLog::from_bytes": "decodes that body in the same tests",
    "dsig-obs::EventLog::to_bytes": "encodes the DSEL body the event drain nests, for its codec tests",
    "dsig-obs::EventLog::from_bytes": "decodes that body in the same tests",
    # Observability checks.
    "dsig-obs::MetricsSnapshot::diff": "the scrape delta that SnapshotDiff::monotonicity_violations reads; "
    "obs_scrape checks per-family counter deltas with it",
    "dsig-obs::SnapshotDiff::monotonicity_violations": "obs_scrape checks that live counters never decrease "
    "between scrapes",
    "dsig-obs::TraceTree": "trace_propagation rebuilds a routed campaign's drained spans into trees",
    "dsig-obs::TraceTree::build": "builds those trees",
    "dsig-obs::TraceTree::spans": "trace_propagation checks which tiers each tree's spans came from",
    "dsig-obs::TraceTree::render": "renders a tree with each span's self time "
    "(render_indents_children_and_reports_self_time); trace_propagation prints every tree it rejects with it",
    "dsig-obs::TraceTree::root_count": "trace_propagation checks each trace has one root",
    "dsig-obs::TraceTree::orphan_count": "trace_propagation checks no span is disconnected",
    # Serving and routing: fixtures and probes of the kept tiers.
    "dsig-serve::Server::handle": "serve tests score in process against a TCP server's store to check the "
    "served answers bit for bit",
    "dsig-serve::Server::metrics": "mux and obs tests read a TCP server's per-family request and error deltas",
    "dsig-serve::ServeHandle::screen_one": "serve tests check one-signature scoring against the batch path",
    "dsig-serve::Client::screen_one": "client tests check one-signature scoring over TCP against direct scoring",
    "dsig-serve::Client::push_golden": "serve and router tests push goldens over TCP to check the admin path",
    "dsig-serve::Client::metrics": "client and obs tests scrape metrics over TCP",
    "dsig-serve::Client::traces": "client and mux tests drain spans over TCP",
    "dsig-serve::Client::fleet_join": "router_loopback joins a backend over TCP and checks every verdict",
    "dsig-serve::Client::fleet_leave": "client tests check that a bare server rejects every fleet-admin verb "
    "(both_transports_drive_every_operation_against_a_bare_server)",
    "dsig-serve::Client::fleet_drain": "router_loopback drains a backend over TCP under load",
    "dsig-serve::Client::fleet_roster": "router_loopback reads the roster and its epoch over TCP",
    "dsig-serve::PipelinedClient::start_screen": "mux tests submit pipelined screens out of order",
    "dsig-serve::PipelinedClient::wait_screen": "mux tests check pipelined screens bit for bit",
    "dsig-serve::PipelinedClient::start_retest": "mux_pipelining submits pipelined retests",
    "dsig-serve::PipelinedClient::wait_retest": "mux_pipelining checks pipelined retests bit for bit",
    "dsig-router::Router::shutdown": "shutdown_is_idempotent_and_handles_survive checks that handles keep "
    "serving in process once the listener stops",
    "dsig-router::RouterHandle::spawn": "router tests and suites build in-process fleets of local backends",
    "dsig-router::RouterHandle::join": "membership tests add a backend and check warm-up and every verdict",
    "dsig-router::RouterHandle::epoch": "router_loopback checks the membership epoch moves on each change",
    "dsig-router::RouterHandle::backend_labels": "membership tests check which backends are members",
    "dsig-router::RouterHandle::backend_count": "router tests check the membership after join, leave and kill",
    "dsig-router::RouterHandle::screen_one": "router tests screen through the fleet after kills and rebalances",
    # Lints.
    "cut-filters::ToneGrid::is_empty": LEN_TWIN,
    "dsig-core::StimulusBank::is_empty": LEN_TWIN,
    "dsig-engine::GoldenCache::is_empty": LEN_TWIN,
    "dsig-engine::SignatureLog::is_empty": LEN_TWIN,
    "dsig-serve::GoldenStore::is_empty": LEN_TWIN,
    "sim-signal::Lissajous::is_empty": LEN_TWIN,
    "xy-monitor::BoundaryCurve::is_empty": LEN_TWIN,
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


# ---- the compiler pass (functions) ----


def trait_methods(code, kinds):
    """`[(trait, name, start, end, line)]` of the methods declared directly in
    the braces of each `trait` block, a default body included in its range."""
    methods = []
    for match in TRAIT.finditer(code):
        brace = code.find("{", match.end())
        if brace < 0:
            continue
        block_end = loc.item_end(code, kinds, brace)
        for method in TRAIT_FN.finditer(code, brace + 1, block_end):
            start = method.start()
            if code.count("{", brace, start) - code.count("}", brace, start) == 1:
                end = loc.item_end(code, kinds, method.end())
                methods.append((match.group(1), method.group(1), start, end, code.count("\n", 0, start) + 1))
    return methods


def mark(text, crate):
    """`(marked, functions)`: `text` with a probe marker before every non-test
    `pub fn` and trait method, and `[(key, start, end, line)]` of those
    functions, `start` and `end` bounding each in `marked` and `line` its line
    in `text` (a marker adds no line)."""
    kinds = code_mask(text)
    code = code_only(text, kinds)
    found = []
    for kind, name, owner, start, end, line in definitions(code, kinds, impl_blocks(code, kinds)):
        if kind == "fn":
            found.append(("::".join(part for part in (crate, owner, name) if part), start, end, line))
    for trait, name, start, end, line in trait_methods(code, kinds):
        found.append((f"{crate}::{trait}::{name}", start, end, line))
    found = [
        (key, start, end, line, f'#[deprecated(note = "{PROBE} {key}")] ')
        for key, start, end, line in sorted(found, key=lambda item: item[1])
    ]
    inserted = [(start, len(marker)) for _, start, _, _, marker in found]

    def moved(at):
        return at + sum(size for start, size in inserted if start <= at)

    pieces, at = [], 0
    for _, start, _, _, marker in found:
        pieces += [text[at:start], marker]
        at = start
    pieces.append(text[at:])
    functions = [(key, moved(start), moved(end - 1) + 1, line) for key, start, end, line, _ in found]
    return "".join(pieces), functions


def charged(span, functions, files):
    """The key of the innermost function among `functions` (`{path:
    [(key, start, end, line)]}`) whose body holds `span`, a rustc JSON span
    with its `path` resolved, following macro expansions out to their call
    sites; `None` when none does."""
    while span:
        at = files.offset(span["path"], span["byte_start"])
        inner = [(end - start, key) for key, start, end, _ in functions.get(span["path"], ()) if start <= at < end]
        if inner:
            return min(inner)[1]
        expansion = span.get("expansion")
        span = expansion and dict(expansion["span"], path=files.resolve(expansion["span"]["file_name"]))
    return None


class Sources:
    """Source texts of the probe copy, by path relative to its root."""

    def __init__(self, root, check_root):
        self.root, self.check_root, self.texts = root, check_root, {}

    def resolve(self, file_name):
        return os.path.relpath(os.path.realpath(os.path.join(self.check_root, file_name)), self.root)

    def text(self, path):
        if path not in self.texts:
            try:
                with open(os.path.join(self.root, path), "rb") as source:
                    data = source.read()
            except OSError:
                data = b""
            text = data.decode("utf-8", errors="replace")
            kinds = code_mask(text)
            self.texts[path] = (data, use_ranges(code_only(text, kinds), kinds))
        return self.texts[path]

    def offset(self, path, byte_start):
        return len(self.text(path)[0][:byte_start].decode("utf-8", errors="replace"))

    def in_use_declaration(self, path, byte_start):
        at = self.offset(path, byte_start)
        return any(start <= at < end for start, end in self.text(path)[1])


def probe(top, paths, crate_names, checks=CHECKS):
    """`(functions, uses)` of the tree at `top`: `{key: (path, line)}` of
    its probed functions, and `[(key, user)]` of their uses, where `user` is
    the probed function whose body holds the use, or `None` for live code.
    `paths` are the files to copy; `checks` are `cargo check` arguments, run
    in order in the copy's root."""
    root = os.path.realpath(tempfile.mkdtemp(prefix="surface-probe-"))
    try:
        functions = {}
        for path in paths:
            target = os.path.join(root, path)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            if scanned(path) and path.startswith(DEFINING_ROOTS):
                with open(os.path.join(top, path), encoding="utf-8") as source:
                    marked, functions[path] = mark(source.read(), crate_names(path))
                with open(target, "w", encoding="utf-8") as copy:
                    copy.write(marked)
            else:
                shutil.copyfile(os.path.join(top, path), target)
        env = dict(os.environ, RUSTFLAGS="--cap-lints=warn", CARGO_TARGET_DIR=os.path.join(root, "target"))
        uses = []
        for check in checks:
            manifest = check[check.index("--manifest-path") + 1] if "--manifest-path" in check else "Cargo.toml"
            files = Sources(root, os.path.dirname(os.path.join(root, manifest)))
            command = ["cargo", "check", "--offline", "--message-format=json", *check]
            run = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
            if run.returncode:
                raise RuntimeError(f"{' '.join(command)} failed:\n{run.stderr[-4000:]}")
            for line in run.stdout.splitlines():
                record = json.loads(line)
                message = record.get("message") or {}
                key = PROBE_KEY.search(message.get("message", ""))
                if record.get("reason") != "compiler-message" or not key:
                    continue
                span = next(span for span in message["spans"] if span["is_primary"])
                span = dict(span, path=files.resolve(span["file_name"]))
                if not files.in_use_declaration(span["path"], span["byte_start"]):
                    uses.append((key.group(1), charged(span, functions, files)))
        listed = {key: (path, line) for path, found in functions.items() for key, _, _, line in found}
        return listed, uses
    finally:
        shutil.rmtree(root, ignore_errors=True)


def unreached(functions, uses, roots=()):
    """The keys of `functions` that no chain of `uses` reaches from live code
    or from `roots`, sorted."""
    callees, frontier = {}, list(roots)
    for key, user in uses:
        if user is None:
            frontier.append(key)
        elif user != key:
            callees.setdefault(user, []).append(key)
    live = set()
    while frontier:
        key = frontier.pop()
        if key not in live:
            live.add(key)
            frontier += callees.get(key, ())
    return sorted(set(functions) - live)


def check(listed, keep):
    """`(unlisted_keeps, unkept_items)`: KEEP entries the passes no longer
    list, and listed items KEEP does not name."""
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
    paths = [path for path in listed_paths if path and os.path.isfile(os.path.join(top, path))]
    files = {}
    for path in filter(scanned, paths):
        with open(os.path.join(top, path), encoding="utf-8", errors="replace") as source:
            files[path] = source.read()
    names = package_names(top)
    others = [item for item in scan(files, names) if item[3] != "fn"]
    functions, uses = probe(top, paths, names)
    listed = sorted(others + [(key, *functions[key], "fn") for key in unreached(functions, uses)])
    # A function that only KEEP's functions reach needs no entry of its own.
    needed = {key for key, *_ in others} | set(unreached(functions, uses, KEEP))
    marks = {key: "kept" if key in KEEP else "DEAD" if key in needed else "via" for key, *_ in listed}
    for key, path, line, kind in listed:
        print(f"{marks[key]:<5} {kind:<7} {key:<56} {path}:{line}")
    tally = collections.Counter(marks.values())
    print(
        f"{len(listed)} public items with no use outside tests ({len(listed) - len(others)} functions by the "
        f"compiler pass, {len(others)} other items by name); {tally['kept']} kept, "
        f"{tally['via']} used only by kept functions"
    )
    if not argv:
        return 0
    stale, unkept = check([item for item in listed if marks[item[0]] != "via"], KEEP)
    for key in stale:
        print(f"KEEP entry no longer listed: {key}", file=sys.stderr)
    for key in unkept:
        print(f"listed but not in KEEP: {key}", file=sys.stderr)
    return 1 if stale or unkept else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
