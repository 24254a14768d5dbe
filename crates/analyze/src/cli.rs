//! The lint driver behind the `prestage-analyze` binary.
//!
//! ```text
//! prestage-analyze [--all] [--rule <r>]... [--baseline <f>] [--update-baseline]
//! [--root <dir>] [--list-rules]
//! ```
//!
//! Exit codes: 0 clean (modulo baseline), 1 findings (or unexplained
//! baseline entries), 2 usage/environment errors.

use crate as analyze;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: prestage-analyze [--all] [--rule <name>]... [--baseline <file>]\n\
         \x20      [--update-baseline] [--root <dir>] [--list-rules]\n\n\
         Runs the repo-specific static-analysis rules over the workspace and\n\
         exits 1 on any finding not absorbed by the ratchet baseline\n\
         (default: <root>/{}).",
        analyze::BASELINE_PATH
    );
    exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("prestage-analyze: {msg}");
    exit(2);
}

/// Parse lint flags, run the pass, print diagnostics; returns the exit
/// code.
pub fn run(args: &[String]) -> i32 {
    let mut rules: Vec<&'static str> = Vec::new();
    let mut baseline_path: Option<String> = None;
    let mut update_baseline = false;
    let mut root_arg: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => rules = analyze::rules::rule_names(),
            "--rule" => {
                let Some(name) = it.next() else {
                    fail("--rule needs a value")
                };
                match analyze::RULES.iter().find(|r| r.name == name.as_str()) {
                    Some(r) => rules.push(r.name),
                    None => fail(&format!(
                        "unknown rule {name:?} (rules: {})",
                        analyze::rules::rule_names().join(", ")
                    )),
                }
            }
            "--baseline" => {
                let Some(p) = it.next() else {
                    fail("--baseline needs a value")
                };
                baseline_path = Some(p.clone());
            }
            "--update-baseline" => update_baseline = true,
            "--root" => {
                let Some(p) = it.next() else {
                    fail("--root needs a value")
                };
                root_arg = Some(p.clone());
            }
            "--list-rules" => {
                for r in analyze::RULES {
                    println!("{:<28} {}", r.name, r.summary);
                }
                return 0;
            }
            _ => usage(),
        }
    }
    if rules.is_empty() {
        rules = analyze::rules::rule_names();
    }

    let root = match root_arg {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let cwd = std::env::current_dir()
                .unwrap_or_else(|e| fail(&format!("cannot determine working directory: {e}")));
            analyze::find_workspace_root(&cwd).unwrap_or_else(|e| fail(&e))
        }
    };
    let baseline_file = match &baseline_path {
        Some(p) => std::path::PathBuf::from(p),
        None => root.join(analyze::BASELINE_PATH),
    };

    let analysis = analyze::analyze_workspace(&root, &rules).unwrap_or_else(|e| fail(&e));

    let baseline = if baseline_file.is_file() {
        let text = std::fs::read_to_string(&baseline_file)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", baseline_file.display())));
        analyze::Baseline::parse(&text)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", baseline_file.display())))
    } else {
        analyze::Baseline::default()
    };

    if update_baseline {
        let updated = baseline.updated(&analysis.findings);
        let blank = updated
            .entries
            .iter()
            .filter(|e| e.reason.trim().is_empty())
            .count();
        std::fs::write(&baseline_file, updated.render())
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", baseline_file.display())));
        eprintln!(
            "wrote {} ({} entr{}, {} finding(s))",
            baseline_file.display(),
            updated.entries.len(),
            if updated.entries.len() == 1 {
                "y"
            } else {
                "ies"
            },
            analysis.findings.len()
        );
        if blank > 0 {
            eprintln!(
                "{blank} new entr{} have an empty \"reason\" — write the justification \
                 or fix the finding; the lint fails until every entry is explained",
                if blank == 1 { "y" } else { "ies" }
            );
            return 1;
        }
        return 0;
    }

    let ratchet = baseline.apply(&analysis.findings);
    for f in &ratchet.new {
        println!("{}", analyze::render_finding(f));
    }
    for e in &ratchet.unexplained {
        println!(
            "{}: baseline: entry ({}, {}) carries no reason — every suppression must \
             argue its case",
            analyze::BASELINE_PATH,
            e.rule,
            e.file
        );
    }
    for (rule, file, allowed, actual) in &ratchet.slack {
        eprintln!(
            "note: ratchet slack: {file} has {actual} `{rule}` finding(s) but the \
             baseline allows {allowed} — run --update-baseline to lock in the progress"
        );
    }
    eprintln!(
        "prestage-analyze: {} file(s), {} rule(s), {} finding(s) ({} new, {} baselined)",
        analysis.files_scanned,
        rules.len(),
        analysis.findings.len(),
        ratchet.new.len(),
        analysis.findings.len() - ratchet.new.len(),
    );
    if !ratchet.new.is_empty() || !ratchet.unexplained.is_empty() {
        eprintln!(
            "prestage-analyze: FAILED — fix the findings above, justify them with \
             `// prestage: allow(<rule>, <reason>)`, or budget them in the baseline \
             with a written reason"
        );
        return 1;
    }
    eprintln!("prestage-analyze: clean");
    0
}
