//! The rule catalog: each rule encodes one defect class this repo has
//! actually shipped (see README "Static analysis" for the history), as a
//! pass over the token stream from [`crate::lexer`].
//!
//! Rules are deliberately syntactic — no type information, no name
//! resolution.  Where syntax cannot prove safety the code carries the
//! proof instead: a `// prestage: allow(<rule>, <reason>)` pragma or a
//! reasoned entry in the ratchet baseline.

use crate::lexer::{Lexed, Tok, Token};
use std::collections::BTreeMap;

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code: the default for `src/` trees.
    Lib,
    /// Binary/CLI code (`src/bin/`, `src/main.rs`).
    Bin,
    /// Tests, benches, examples, fixtures: exempt from every rule.
    Test,
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub message: String,
}

/// Rule metadata for `--list-rules` and pragma validation.
pub struct Rule {
    pub name: &'static str,
    pub summary: &'static str,
}

pub const TRUNCATING_CAST: &str = "truncating-cast";
pub const UNCHECKED_COUNTER_ADD: &str = "unchecked-counter-add";
pub const NONDETERMINISTIC_ITERATION: &str = "nondeterministic-iteration";
pub const WALLCLOCK_IN_SIM: &str = "wallclock-in-sim";
pub const UNWRAP_IN_LIB: &str = "unwrap-in-lib";
pub const UNNAMED_REJECTION: &str = "unnamed-rejection";
pub const MAP_IN_CYCLE_PATH: &str = "map-in-cycle-path";
pub const DEAD_PUB: &str = "dead-pub";
/// Meta-rule for malformed suppression pragmas; never suppressible.
pub const PRAGMA: &str = "pragma";

pub const RULES: &[Rule] = &[
    Rule {
        name: TRUNCATING_CAST,
        summary: "narrowing `as u8/u16/u32` (and signed) casts outside justified sites \
                  — the PR 5 stream-length `as u16` truncation class",
    },
    Rule {
        name: UNCHECKED_COUNTER_ADD,
        summary: "bare `+`/`*` on `*_insts`/`*seed` counters — the PR 6 \
                  `warmup_insts + measure_insts` u64-wrap class; use checked_*/saturating_*",
    },
    Rule {
        name: NONDETERMINISTIC_ITERATION,
        summary: "HashMap/HashSet in library code, whose iteration order can leak into \
                  stats or output — use BTreeMap/BTreeSet or prove order-independence",
    },
    Rule {
        name: WALLCLOCK_IN_SIM,
        summary: "Instant/SystemTime outside the runner/CLI/bench timing layer — \
                  wall-clock in simulation code breaks bit-exact replay",
    },
    Rule {
        name: UNWRAP_IN_LIB,
        summary: ".unwrap()/.expect( in non-test library code — rejections must be \
                  named errors, not panics",
    },
    Rule {
        name: UNNAMED_REJECTION,
        summary: "panic!/assert! in parse/validate paths whose message names no \
                  field, offset or value — the loud-rejection policy, statically",
    },
    Rule {
        name: MAP_IN_CYCLE_PATH,
        summary: "BTreeMap/HashMap (and the Set variants) in per-cycle simulator \
                  files — the PR 9 raw-speed campaign replaced every one with flat \
                  state; new hot-path maps need a pragma proving they are cold",
    },
    Rule {
        name: DEAD_PUB,
        summary: "`pub fn`/`const`/`static` whose name no other file, and no non-test \
                  code of its own file, mentions — the dead public functions PRs 16 \
                  and 20 found by hand; the one cross-file rule",
    },
];

pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|r| r.name).collect()
}

/// Classify a workspace-relative path (unix separators).
pub fn classify(rel_path: &str) -> FileClass {
    let p = rel_path;
    if p.starts_with("tests/")
        || p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.starts_with("examples/")
        || p.contains("/fixtures/")
    {
        return FileClass::Test;
    }
    if p.contains("/src/bin/") || p.ends_with("/src/main.rs") || p == "src/main.rs" {
        return FileClass::Bin;
    }
    FileClass::Lib
}

/// Paths where wall-clock time is the *point* (timing layers), exempt from
/// [`WALLCLOCK_IN_SIM`].
const WALLCLOCK_ALLOWED: &[&str] = &["src/bin/", "crates/bench/", "crates/sim/src/runner.rs"];

/// Files ticked every simulated cycle, subject to [`MAP_IN_CYCLE_PATH`]:
/// the engine loop and everything it calls per cycle.  Tree/hash lookups
/// here cost pointer chases and hashing on the hottest path in the repo;
/// the flat replacements (rings, bitmaps, index-keyed vectors) are the
/// required idiom.  Cold-path files of the same crates (spec parsing,
/// config validation, reporting) are deliberately not listed.
const CYCLE_PATH_FILES: &[&str] = &[
    "crates/sim/src/engine.rs",
    "crates/sim/src/backend.rs",
    "crates/core/src/frontend.rs",
    "crates/core/src/queue.rs",
    "crates/core/src/prefetch.rs",
    "crates/core/src/buffer.rs",
    "crates/cache/src/array.rs",
    "crates/cache/src/bus.rs",
    "crates/cache/src/lru.rs",
    "crates/cache/src/port.rs",
    "crates/cache/src/tlb.rs",
    "crates/bpred/src/predictor.rs",
    "crates/bpred/src/gshare.rs",
    "crates/bpred/src/ras.rs",
    "crates/bpred/src/stream.rs",
];

/// Parse/validate surfaces subject to [`UNNAMED_REJECTION`]: everything
/// that turns untrusted bytes into values.
const REJECTION_PATHS: &[&str] = &[
    "crates/json/src/",
    "crates/sim/src/cache.rs",
    "crates/sim/src/spec.rs",
    "crates/sim/src/wire.rs",
    "crates/workload/src/trace_io.rs",
    "crates/workload/src/replay.rs",
    "fuzz/src/",
];

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Words that count as "naming" the rejected field/offset in a message.
const NAMING_WORDS: &[&str] = &[
    "field", "offset", "byte", "record", "chunk", "line", "key", "index", "cell", "seed", "spec",
    "bench", "name", "inst", "version", "header", "crc",
];

/// `#[cfg(test)]` / `#[test]` item line ranges (inclusive), so in-file test
/// modules are exempt without path heuristics.
pub fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].kind != Tok::Punct('#') || tokens[i + 1].kind != Tok::Punct('[') {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        // Collect the attribute's identifiers up to the matching ']'.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < tokens.len() && depth > 0 {
            match &tokens[j].kind {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                Tok::Ident(s) => idents.push(s),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = match idents.first() {
            Some(&"cfg") => idents.contains(&"test"),
            Some(&"test") => idents.len() == 1,
            _ => false,
        };
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then span the item: to the close of
        // its first brace block, or to a `;` for braceless items.
        let mut k = j;
        while k + 1 < tokens.len()
            && tokens[k].kind == Tok::Punct('#')
            && tokens[k + 1].kind == Tok::Punct('[')
        {
            let mut d = 1usize;
            k += 2;
            while k < tokens.len() && d > 0 {
                match tokens[k].kind {
                    Tok::Punct('[') => d += 1,
                    Tok::Punct(']') => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        let mut end_line = attr_line;
        let mut brace = 0usize;
        while k < tokens.len() {
            match tokens[k].kind {
                Tok::Punct('{') => brace += 1,
                Tok::Punct('}') => {
                    brace = brace.saturating_sub(1);
                    if brace == 0 {
                        end_line = tokens[k].line;
                        break;
                    }
                }
                Tok::Punct(';') if brace == 0 => {
                    end_line = tokens[k].line;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        if k >= tokens.len() {
            end_line = tokens.last().map_or(attr_line, |t| t.line);
        }
        regions.push((attr_line, end_line));
        i = j;
    }
    regions
}

fn in_test(regions: &[(usize, usize)], line: usize) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

fn ident(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(tokens: &[Token], i: usize) -> Option<char> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(&Tok::Punct(c)) => Some(c),
        _ => None,
    }
}

/// One workspace file, lexed once and shared by every rule.  Built only by
/// [`SourceFile::new`], so its class and test regions match its path and
/// tokens.
pub struct SourceFile {
    pub(crate) rel_path: String,
    pub(crate) lexed: Lexed,
    class: FileClass,
    /// Its [`test_regions`].
    regions: Vec<(usize, usize)>,
}

impl SourceFile {
    pub fn new(rel_path: &str, source: &str) -> SourceFile {
        let lexed = crate::lexer::lex(source);
        let regions = test_regions(&lexed.tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            class: classify(rel_path),
            lexed,
            regions,
        }
    }
}

/// Run every enabled single-file rule over one lexed file.
pub fn run_rules(file: &SourceFile, enabled: &[&str]) -> Vec<Finding> {
    if file.class == FileClass::Test {
        return Vec::new();
    }
    let rel_path = file.rel_path.as_str();
    let class = file.class;
    let tokens = &file.lexed.tokens;
    let regions = &file.regions;
    let mut out = Vec::new();
    let on = |name: &str| enabled.contains(&name);

    let finding = |rule: &'static str, t: &Token, message: String| Finding {
        rule,
        file: rel_path.to_string(),
        line: t.line,
        col: t.col,
        message,
    };

    if on(TRUNCATING_CAST) {
        for i in 0..tokens.len() {
            if in_test(regions, tokens[i].line) {
                continue;
            }
            if ident(tokens, i) == Some("as") {
                if let Some(ty) = ident(tokens, i + 1) {
                    if NARROW_TARGETS.contains(&ty) {
                        out.push(finding(
                            TRUNCATING_CAST,
                            &tokens[i],
                            format!(
                                "narrowing `as {ty}` cast silently truncates — use \
                                 `{ty}::try_from` (or prove the range and add a pragma)"
                            ),
                        ));
                    }
                }
            }
        }
    }

    if on(UNCHECKED_COUNTER_ADD) && class == FileClass::Lib {
        let is_counter = |s: &str| s.ends_with("_insts") || s.ends_with("seed");
        for i in 0..tokens.len() {
            if in_test(regions, tokens[i].line) {
                continue;
            }
            let Some(name) = ident(tokens, i) else {
                continue;
            };
            if !is_counter(name) {
                continue;
            }
            // `counter + x` / `counter * x` / `counter += x`.
            let next_is_op = matches!(punct(tokens, i + 1), Some('+') | Some('*'));
            // `x + counter`, only in clearly binary position.
            let prev_is_op = matches!(punct(tokens, i.wrapping_sub(1)), Some('+') | Some('*'))
                && i >= 2
                && matches!(
                    tokens[i - 2].kind,
                    Tok::Ident(_) | Tok::Num | Tok::Punct(')') | Tok::Punct(']')
                );
            if next_is_op || prev_is_op {
                out.push(finding(
                    UNCHECKED_COUNTER_ADD,
                    &tokens[i],
                    format!(
                        "bare arithmetic on counter `{name}` can wrap u64 — use \
                         checked_add/checked_mul (or saturating_*) and reject loudly"
                    ),
                ));
            }
        }
    }

    if on(NONDETERMINISTIC_ITERATION) && class == FileClass::Lib {
        let mut in_use = false;
        for i in 0..tokens.len() {
            match ident(tokens, i) {
                Some("use") if !matches!(punct(tokens, i.wrapping_sub(1)), Some('.')) => {
                    in_use = true
                }
                Some(name @ ("HashMap" | "HashSet"))
                    if !in_use && !in_test(regions, tokens[i].line) =>
                {
                    out.push(finding(
                        NONDETERMINISTIC_ITERATION,
                        &tokens[i],
                        format!(
                            "`{name}` iteration order is nondeterministic and can leak \
                             into stats/output — use BTreeMap/BTreeSet, or pragma with \
                             a proof that it is never iterated (or its use is \
                             order-independent)"
                        ),
                    ));
                }
                _ => {}
            }
            if punct(tokens, i) == Some(';') {
                in_use = false;
            }
        }
    }

    if on(WALLCLOCK_IN_SIM)
        && class == FileClass::Lib
        && !WALLCLOCK_ALLOWED.iter().any(|p| rel_path.starts_with(p))
    {
        for i in 0..tokens.len() {
            if in_test(regions, tokens[i].line) {
                continue;
            }
            if let Some(name @ ("Instant" | "SystemTime")) = ident(tokens, i) {
                out.push(finding(
                    WALLCLOCK_IN_SIM,
                    &tokens[i],
                    format!(
                        "`{name}` in simulation code — wall-clock state breaks bit-exact \
                         replay; time belongs in the runner/CLI/bench layer"
                    ),
                ));
            }
        }
    }

    if on(UNWRAP_IN_LIB) && class == FileClass::Lib {
        for i in 0..tokens.len() {
            if in_test(regions, tokens[i].line) || punct(tokens, i) != Some('.') {
                continue;
            }
            let bad = match ident(tokens, i + 1) {
                Some("unwrap") => {
                    punct(tokens, i + 2) == Some('(') && punct(tokens, i + 3) == Some(')')
                }
                Some("expect") => punct(tokens, i + 2) == Some('('),
                _ => false,
            };
            if bad {
                let name = ident(tokens, i + 1).unwrap_or("unwrap");
                out.push(finding(
                    UNWRAP_IN_LIB,
                    &tokens[i + 1],
                    format!(
                        "`.{name}(…)` in library code panics instead of returning a \
                         named error — propagate a Result (or pragma an invariant)"
                    ),
                ));
            }
        }
    }

    if on(UNNAMED_REJECTION)
        && class == FileClass::Lib
        && REJECTION_PATHS.iter().any(|p| rel_path.starts_with(p))
    {
        check_rejections(rel_path, tokens, regions, &mut out);
    }

    if on(MAP_IN_CYCLE_PATH) && CYCLE_PATH_FILES.contains(&rel_path) {
        let in_use = use_items(tokens);
        for i in 0..tokens.len() {
            match ident(tokens, i) {
                Some(name @ ("BTreeMap" | "BTreeSet" | "HashMap" | "HashSet"))
                    if !in_use[i] && !in_test(regions, tokens[i].line) =>
                {
                    out.push(finding(
                        MAP_IN_CYCLE_PATH,
                        &tokens[i],
                        format!(
                            "`{name}` in a per-cycle file — tree/hash lookups on the \
                             hottest path; use a flat ring/bitmap/index-keyed vector, \
                             or pragma with a proof the structure is touched off the \
                             per-cycle path"
                        ),
                    ));
                }
                _ => {}
            }
        }
    }

    out
}

/// Whether each token lies inside a `use` item, from `use` to its `;`.
fn use_items(tokens: &[Token]) -> Vec<bool> {
    let mut inside = false;
    (0..tokens.len())
        .map(|i| {
            inside |=
                ident(tokens, i) == Some("use") && punct(tokens, i.wrapping_sub(1)) != Some('.');
            let here = inside;
            inside &= punct(tokens, i) != Some(';');
            here
        })
        .collect()
}

/// [`DEAD_PUB`], the one cross-file rule: a `pub fn`, `pub const` or
/// `pub static` declared outside test code whose name no identifier token
/// mentions, apart from its declaration, `use` items and its own file's
/// test regions.  A method (a `pub fn` taking `self` first) counts only
/// calls and paths — `.name(`, `.name::<`, `::name` — so a field or local
/// of the same name does not keep it alive, and neither does a `pub use`
/// re-export.  Every file counts as a user, test files included; comments
/// and strings are not tokens, so prose or a message alone does not keep a
/// name alive.
pub fn dead_pub(files: &[SourceFile]) -> Vec<Finding> {
    let mut uses = Uses::default();
    for f in files {
        uses.add(&f.lexed.tokens, |_| true);
    }
    let mut out = Vec::new();
    for f in files.iter().filter(|f| f.class != FileClass::Test) {
        let tokens = &f.lexed.tokens;
        let mut own_test_uses = Uses::default();
        own_test_uses.add(tokens, |line| in_test(&f.regions, line));
        for i in 0..tokens.len() {
            if ident(tokens, i) != Some("pub") || in_test(&f.regions, tokens[i].line) {
                continue;
            }
            let Some((kind, at)) = pub_item(tokens, i + 1) else {
                continue;
            };
            let name = ident(tokens, at).unwrap_or_default();
            let method = kind == "fn" && takes_self(tokens, at);
            let live = uses.count(name, method) - own_test_uses.count(name, method);
            if live == 0 {
                out.push(Finding {
                    rule: DEAD_PUB,
                    file: f.rel_path.clone(),
                    line: tokens[at].line,
                    col: tokens[at].col,
                    message: format!(
                        "`pub {kind} {name}` is used nowhere outside its own file's \
                         tests — delete it with its tests, or give it a caller"
                    ),
                });
            }
        }
    }
    out
}

/// Name uses counted over a set of token streams: every identifier, and
/// the subset in call or path position.
#[derive(Default)]
struct Uses<'a> {
    any: BTreeMap<&'a str, usize>,
    calls: BTreeMap<&'a str, usize>,
}

impl<'a> Uses<'a> {
    /// Count the identifier tokens on lines `keep` accepts that are uses:
    /// every one outside a `use` item except the name a `fn`, `const` or
    /// `static [mut]` declares.
    fn add(&mut self, tokens: &'a [Token], keep: impl Fn(usize) -> bool) {
        let in_use = use_items(tokens);
        for i in 0..tokens.len() {
            let Some(name) = ident(tokens, i) else {
                continue;
            };
            let declared = match ident(tokens, i.wrapping_sub(1)) {
                Some("fn" | "const" | "static") => true,
                Some("mut") => ident(tokens, i.wrapping_sub(2)) == Some("static"),
                _ => false,
            };
            if declared || in_use[i] || !keep(tokens[i].line) {
                continue;
            }
            *self.any.entry(name).or_default() += 1;
            let p = |k: usize| punct(tokens, k);
            let turbofish = p(i + 1) == Some(':') && p(i + 2) == Some(':') && p(i + 3) == Some('<');
            let call = p(i.wrapping_sub(1)) == Some('.') && (p(i + 1) == Some('(') || turbofish);
            let path = p(i.wrapping_sub(1)) == Some(':') && p(i.wrapping_sub(2)) == Some(':');
            if call || path {
                *self.calls.entry(name).or_default() += 1;
            }
        }
    }

    fn count(&self, name: &str, method: bool) -> usize {
        let map = if method { &self.calls } else { &self.any };
        map.get(name).copied().unwrap_or(0)
    }
}

/// Whether the `fn` named at `at` takes `self` first (`self`, `&self`,
/// `&'a mut self`, `mut self`): past any generics, its parameter list
/// opens on `self` behind at most `&` and `mut` (lifetimes are not tokens).
fn takes_self(tokens: &[Token], at: usize) -> bool {
    let mut j = at + 1;
    if punct(tokens, j) == Some('<') {
        let mut depth = 0usize;
        while j < tokens.len() {
            match punct(tokens, j) {
                Some('<') => depth += 1,
                // `->` inside a bound (`F: Fn() -> u32`) closes nothing.
                Some('>') if punct(tokens, j - 1) != Some('-') => depth -= 1,
                _ => {}
            }
            j += 1;
            if depth == 0 {
                break;
            }
        }
    }
    if punct(tokens, j) != Some('(') {
        return false;
    }
    j += 1;
    while punct(tokens, j) == Some('&') || ident(tokens, j) == Some("mut") {
        j += 1;
    }
    ident(tokens, j) == Some("self")
}

/// After a plain `pub` at `j`: the kind and name index of a `fn` (past any
/// `const`/`unsafe`/`async`/`extern "abi"` qualifiers), `const` or
/// `static [mut]` item.  `None` for every other item and for `pub(…)`.
fn pub_item(tokens: &[Token], mut j: usize) -> Option<(&'static str, usize)> {
    let kind = loop {
        match ident(tokens, j)? {
            "fn" => break "fn",
            "static" => break "static",
            "const"
                if !matches!(
                    ident(tokens, j + 1),
                    Some("fn" | "unsafe" | "async" | "extern")
                ) =>
            {
                break "const"
            }
            "const" | "unsafe" | "async" | "extern" => {}
            _ => return None,
        }
        j += 1;
        if matches!(tokens.get(j).map(|t| &t.kind), Some(Tok::Str(_))) {
            j += 1;
        }
    };
    let at = j + 1 + usize::from(kind == "static" && ident(tokens, j + 1) == Some("mut"));
    ident(tokens, at).map(|_| (kind, at))
}

/// Scan `panic!`/`assert!`/`assert_eq!`/`assert_ne!` calls and demand that
/// their message names what was rejected (a `{}` interpolation of the
/// offending value, or a field/offset word).
fn check_rejections(
    rel_path: &str,
    tokens: &[Token],
    regions: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i < tokens.len() {
        let Some(mac @ ("panic" | "assert" | "assert_eq" | "assert_ne")) = ident(tokens, i) else {
            i += 1;
            continue;
        };
        if in_test(regions, tokens[i].line)
            || punct(tokens, i + 1) != Some('!')
            || punct(tokens, i + 2) != Some('(')
        {
            i += 1;
            continue;
        }
        let needs_comma = mac != "panic";
        // Walk the macro arguments at bracket depth 1.
        let mut depth = 1usize;
        let mut j = i + 3;
        let mut seen_comma = false;
        let mut message: Option<&str> = None;
        while j < tokens.len() && depth > 0 {
            match &tokens[j].kind {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                Tok::Punct(',') if depth == 1 => seen_comma = true,
                Tok::Str(s) if depth == 1 && (seen_comma || !needs_comma) => {
                    message = Some(s.as_str());
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        match message {
            None => out.push(Finding {
                rule: UNNAMED_REJECTION,
                file: rel_path.to_string(),
                line: tokens[i].line,
                col: tokens[i].col,
                message: format!(
                    "`{mac}!` without a message in a parse/validate path — every \
                     rejection must name the offending field/offset/value"
                ),
            }),
            Some(msg) if !message_names_something(msg) => out.push(Finding {
                rule: UNNAMED_REJECTION,
                file: rel_path.to_string(),
                line: tokens[i].line,
                col: tokens[i].col,
                message: format!(
                    "`{mac}!` message {msg:?} names no field, offset or value — \
                     interpolate the offender or name the field"
                ),
            }),
            Some(_) => {}
        }
        i = j.max(i + 1);
    }
}

/// A message "names" the rejection if it interpolates a value (`{…}` that
/// is not an escaped `{{`) or mentions a field/offset word.
fn message_names_something(msg: &str) -> bool {
    let bytes = msg.as_bytes();
    let mut k = 0;
    while k < bytes.len() {
        if bytes[k] == b'{' {
            if bytes.get(k + 1) == Some(&b'{') {
                k += 2;
                continue;
            }
            return true;
        }
        k += 1;
    }
    let lower = msg.to_lowercase();
    NAMING_WORDS.iter().any(|w| lower.contains(w))
}
