//! The ratchet baseline: a checked-in, strict-JSON inventory of findings
//! the workspace has triaged but not yet fixed, so the lint pass lands
//! green and can only tighten from there.
//!
//! Every entry carries a human-written `reason` — an entry without one is
//! itself a failure (the repo's policy is that suppressions are arguments,
//! not escape hatches).  `--update-baseline` refreshes counts but never
//! invents reasons: new entries are written with an empty reason and the
//! run keeps failing until someone writes the justification.

use crate::rules::Finding;
use prestage_json::Json;
use std::collections::BTreeMap;

pub const SCHEMA: u64 = 1;

/// One triaged (rule, file) bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    pub rule: String,
    pub file: String,
    /// Maximum tolerated findings of `rule` in `file`.
    pub count: usize,
    /// Why these findings are acceptable for now (required).
    pub reason: String,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub entries: Vec<BaselineEntry>,
}

/// The verdict of applying a baseline to a finding set.
#[derive(Debug, Default)]
pub struct Ratchet {
    /// Findings beyond the baselined budget (fail the run).
    pub new: Vec<Finding>,
    /// Baseline entries with an empty reason (fail the run).
    pub unexplained: Vec<BaselineEntry>,
    /// Buckets where the code now beats the baseline — tighten it.
    pub slack: Vec<(String, String, usize, usize)>, // (rule, file, allowed, actual)
}

impl Baseline {
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let v = Json::parse(text).map_err(|e| format!("baseline: {e}"))?;
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("baseline: missing integer field \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!(
                "baseline: schema {schema} unsupported (this tool reads schema {SCHEMA})"
            ));
        }
        let arr = v
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("baseline: missing array field \"entries\"")?;
        let mut entries = Vec::with_capacity(arr.len());
        for (i, e) in arr.iter().enumerate() {
            let field = |k: &str| -> Result<&Json, String> {
                e.get(k)
                    .ok_or_else(|| format!("baseline: entry {i} missing field {k:?}"))
            };
            let rule = field("rule")?
                .as_str()
                .ok_or_else(|| format!("baseline: entry {i} field \"rule\" must be a string"))?;
            if !crate::rules::rule_names().contains(&rule) {
                return Err(format!(
                    "baseline: entry {i} names unknown rule {rule:?} (rules: {})",
                    crate::rules::rule_names().join(", ")
                ));
            }
            let file = field("file")?
                .as_str()
                .ok_or_else(|| format!("baseline: entry {i} field \"file\" must be a string"))?;
            let count = field("count")?.as_usize().ok_or_else(|| {
                format!("baseline: entry {i} field \"count\" must be a non-negative integer")
            })?;
            let reason = field("reason")?
                .as_str()
                .ok_or_else(|| format!("baseline: entry {i} field \"reason\" must be a string"))?;
            entries.push(BaselineEntry {
                rule: rule.to_string(),
                file: file.to_string(),
                count,
                reason: reason.to_string(),
            });
        }
        Ok(Baseline { entries })
    }

    pub fn render(&self) -> String {
        let entries: Vec<Json> = self
            .entries
            .iter()
            .map(|e| {
                Json::obj([
                    ("rule", e.rule.as_str().into()),
                    ("file", e.file.as_str().into()),
                    ("count", e.count.into()),
                    ("reason", e.reason.as_str().into()),
                ])
            })
            .collect();
        Json::obj([("schema", SCHEMA.into()), ("entries", Json::Arr(entries))]).pretty()
    }

    /// Compare findings against the baseline.  Within one (rule, file)
    /// bucket the first `count` findings are absorbed and the rest are
    /// new — position-independent on purpose: a baseline pins a *budget*,
    /// not line numbers, so unrelated edits do not invalidate it.
    pub fn apply(&self, findings: &[Finding]) -> Ratchet {
        let mut budget: BTreeMap<(String, String), usize> = BTreeMap::new();
        for e in &self.entries {
            budget.insert((e.rule.clone(), e.file.clone()), e.count);
        }
        let mut used: BTreeMap<(String, String), usize> = BTreeMap::new();
        let mut r = Ratchet::default();
        for f in findings {
            let key = (f.rule.to_string(), f.file.clone());
            let allowed = budget.get(&key).copied().unwrap_or(0);
            let u = used.entry(key).or_insert(0);
            if *u < allowed {
                *u += 1;
            } else {
                r.new.push(f.clone());
            }
        }
        for e in &self.entries {
            if e.reason.trim().is_empty() {
                r.unexplained.push(e.clone());
            }
            let actual = used
                .get(&(e.rule.clone(), e.file.clone()))
                .copied()
                .unwrap_or(0);
            if actual < e.count {
                r.slack
                    .push((e.rule.clone(), e.file.clone(), e.count, actual));
            }
        }
        r
    }

    /// Rebuild the baseline from current findings, carrying forward the
    /// reasons of surviving buckets.  New buckets get an empty reason —
    /// the run stays red until a human writes one.
    pub fn updated(&self, findings: &[Finding]) -> Baseline {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for f in findings {
            *counts
                .entry((f.rule.to_string(), f.file.clone()))
                .or_insert(0) += 1;
        }
        let mut entries = Vec::with_capacity(counts.len());
        for ((rule, file), count) in counts {
            let reason = self
                .entries
                .iter()
                .find(|e| e.rule == rule && e.file == file)
                .map(|e| e.reason.clone())
                .unwrap_or_default();
            entries.push(BaselineEntry {
                rule,
                file,
                count,
                reason,
            });
        }
        Baseline { entries }
    }
}
