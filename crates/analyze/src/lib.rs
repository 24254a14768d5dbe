//! # prestage-analyze
//!
//! `prestage-analyze`: a fully-offline static-analysis pass that encodes this
//! repository's determinism, overflow and loud-rejection invariants as
//! CI-gated lints.  `cargo clippy` cannot see these rules because they are
//! repo-specific; every one of them is a defect class the repo actually
//! shipped and later dug out with byte-exactness tests or fuzzing:
//!
//! | rule | historical bug |
//! |------|----------------|
//! | `truncating-cast` | PR 5's `as u16` stream-length clamp |
//! | `unchecked-counter-add` | PR 6's `warmup_insts + measure_insts` u64 wrap |
//! | `nondeterministic-iteration` | HashMap order leaking into merged stats |
//! | `wallclock-in-sim` | wall-clock state breaking bit-exact replay |
//! | `unwrap-in-lib` | panics where the policy demands named errors |
//! | `unnamed-rejection` | rejections the fuzzer could only check dynamically |
//! | `map-in-cycle-path` | PR 9's flattened hot path growing maps again |
//! | `dead-pub` | the dead public functions PRs 16 and 20 found by hand; the one cross-file rule |
//!
//! The pass is a small hand-written Rust lexer ([`lexer`]) — strings,
//! nested comments and raw strings handled correctly, no rustc internals,
//! consistent with the workspace's vendored-shim/offline constraint — plus
//! a rule engine ([`rules`]) that walks the workspace and reports named,
//! clickable `file:line:col` diagnostics.
//!
//! Two escape hatches, both of which must argue their case:
//!
//! * `// prestage: allow(<rule>, <reason>)` on (or directly above) the
//!   offending line.  A pragma without a reason is itself a finding.
//! * the checked-in ratchet baseline (`crates/analyze/baseline.json`,
//!   strict JSON via `prestage-json`): per-(rule, file) budgets with a
//!   written reason each, refreshed by `--update-baseline` — which never
//!   invents reasons, so a new bucket keeps the run red until justified.

pub mod baseline;
pub mod cli;
pub mod lexer;
pub mod rules;

pub use baseline::{Baseline, BaselineEntry, Ratchet};
pub use rules::{classify, FileClass, Finding, RULES};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Workspace-relative default location of the ratchet baseline.
pub const BASELINE_PATH: &str = "crates/analyze/baseline.json";

/// A suppression pragma: `// prestage: allow(<rule>, <reason>)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    pub line: usize,
    pub rule: String,
    pub reason: String,
}

/// Extract pragmas from a file's comments.  Malformed pragmas (unknown
/// rule, missing reason) come back as unsuppressible findings.
fn scan_pragmas(rel_path: &str, lexed: &lexer::Lexed) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for c in &lexed.comments {
        // Pragmas are directives, and only live in plain comments; doc
        // comments describing the pragma syntax are documentation.
        let doc = c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/*!")
            || (c.text.starts_with("/**") && !c.text.starts_with("/**/"));
        if doc {
            continue;
        }
        let Some(at) = c.text.find("prestage:") else {
            continue;
        };
        let rest = c.text[at + "prestage:".len()..].trim_start();
        let bad = |message: String| Finding {
            rule: rules::PRAGMA,
            file: rel_path.to_string(),
            line: c.line,
            col: 1,
            message,
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            findings.push(bad(format!(
                "unrecognized prestage pragma {:?} — the form is \
                 `// prestage: allow(<rule>, <reason>)`",
                c.text.trim_start_matches('/').trim()
            )));
            continue;
        };
        let Some(close) = args.rfind(')') else {
            findings.push(bad("pragma missing closing ')'".to_string()));
            continue;
        };
        let body = &args[..close];
        let (rule, reason) = match body.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (body.trim(), ""),
        };
        if !rules::rule_names().contains(&rule) {
            findings.push(bad(format!(
                "pragma names unknown rule {rule:?} (rules: {})",
                rules::rule_names().join(", ")
            )));
            continue;
        }
        if reason.is_empty() {
            findings.push(bad(format!(
                "pragma for `{rule}` carries no reason — suppressions must argue \
                 their case: `// prestage: allow({rule}, <why this is safe>)`"
            )));
            continue;
        }
        pragmas.push(Pragma {
            line: c.line,
            rule: rule.to_string(),
            reason: reason.to_string(),
        });
    }
    (pragmas, findings)
}

/// Analyze source texts, each as if it lived at its workspace-relative path
/// (unix separators).  This is the whole pipeline — lex each file once,
/// the single-file rules per file and [`rules::DEAD_PUB`] across the set,
/// pragma suppression — shared by the workspace walk and the fixture tests.
pub fn analyze_sources<S: AsRef<str>>(sources: &[(S, S)], enabled: &[&str]) -> Vec<Finding> {
    let files: Vec<rules::SourceFile> = sources
        .iter()
        .map(|(rel_path, source)| rules::SourceFile::new(rel_path.as_ref(), source.as_ref()))
        .collect();
    let mut findings = Vec::new();
    let mut pragmas: BTreeMap<&str, Vec<Pragma>> = BTreeMap::new();
    let mut raw = Vec::new();
    for f in &files {
        let (ok, bad) = scan_pragmas(&f.rel_path, &f.lexed);
        pragmas.insert(&f.rel_path, ok);
        findings.extend(bad);
        raw.extend(rules::run_rules(f, enabled));
    }
    if enabled.contains(&rules::DEAD_PUB) {
        raw.extend(rules::dead_pub(&files));
    }
    findings.extend(raw.into_iter().filter(|f| {
        !pragmas[f.file.as_str()]
            .iter()
            .any(|p| p.rule == f.rule && (p.line == f.line || p.line + 1 == f.line))
    }));
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    findings
}

/// [`analyze_sources`] over one file: the cross-file rule sees no other
/// file, so every `pub` item there is used in that file or nowhere.
pub fn analyze_source(rel_path: &str, source: &str, enabled: &[&str]) -> Vec<Finding> {
    analyze_sources(&[(rel_path, source)], enabled)
}

/// The result of a workspace pass.
#[derive(Debug, Default)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Directories never descended into: build output, vendored shims (not
/// this repo's code), VCS state, artifacts, and lint-fixture corpora.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github", "results", "fixtures"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = Vec::new();
    for e in rd {
        let e = e.map_err(|e| format!("error listing {}: {e}", dir.display()))?;
        entries.push(e.path());
    }
    // Deterministic walk order → deterministic diagnostics.
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walk the workspace at `root` and run the enabled rules over every
/// non-vendored `.rs` file as one [`analyze_sources`] set.
pub fn analyze_workspace(root: &Path, enabled: &[&str]) -> Result<Analysis, String> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths)?;
    let mut sources = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("walker escaped the workspace root: {}", path.display()))?;
        let rel = rel.to_string_lossy().replace('\\', "/");
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.push((rel, source));
    }
    Ok(Analysis {
        findings: analyze_sources(&sources, enabled),
        files_scanned: sources.len(),
    })
}

/// Find the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        let Some(parent) = dir.parent() else {
            return Err(format!(
                "no workspace Cargo.toml found above {}",
                start.display()
            ));
        };
        dir = parent.to_path_buf();
    }
}

/// Render one finding in the conventional clickable form.
pub fn render_finding(f: &Finding) -> String {
    format!("{}:{}:{}: {}: {}", f.file, f.line, f.col, f.rule, f.message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_on_same_or_previous_line_suppresses() {
        let src = "\
fn f(x: u64) -> u16 {
    // prestage: allow(truncating-cast, callers pass port numbers < 65536)
    let a = x as u16;
    let b = x as u16; // prestage: allow(truncating-cast, same proof as above)
    a + b
}
";
        let fs = analyze_source("crates/core/src/x.rs", src, &[rules::TRUNCATING_CAST]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn pragma_without_reason_is_a_finding() {
        let src = "// prestage: allow(truncating-cast)\nfn f(x: u64) -> u16 { x as u16 }\n";
        let fs = analyze_source("crates/core/src/x.rs", src, &[rules::TRUNCATING_CAST]);
        // The pragma is rejected AND does not suppress.
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().any(|f| f.rule == rules::PRAGMA));
        assert!(fs.iter().any(|f| f.rule == rules::TRUNCATING_CAST));
    }

    #[test]
    fn pragma_with_unknown_rule_is_a_finding() {
        let src = "// prestage: allow(no-such-rule, because)\nfn f() {}\n";
        let fs = analyze_source("crates/core/src/x.rs", src, &[]);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("no-such-rule"));
    }

    #[test]
    fn test_files_and_test_modules_are_exempt() {
        let src = "fn f(x: u64) -> u16 { x as u16 }\n";
        assert!(
            analyze_source("crates/core/tests/t.rs", src, &[rules::TRUNCATING_CAST]).is_empty()
        );
        let src = "\
#[cfg(test)]
mod tests {
    fn g(x: u64) -> u16 { x.unwrap() as u16 }
}
";
        let fs = analyze_source(
            "crates/core/src/x.rs",
            src,
            &[rules::TRUNCATING_CAST, rules::UNWRAP_IN_LIB],
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn findings_are_sorted_and_renderable() {
        let src = "fn f(x: u64) -> (u16, u8) { (x as u16, x as u8) }\n";
        let fs = analyze_source("crates/core/src/x.rs", src, &[rules::TRUNCATING_CAST]);
        assert_eq!(fs.len(), 2);
        assert!(fs[0].col < fs[1].col);
        let r = render_finding(&fs[0]);
        assert!(r.starts_with("crates/core/src/x.rs:1:"), "{r}");
        assert!(r.contains("truncating-cast"));
    }
}
