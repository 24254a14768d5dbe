//! Every `pub` item here has a user: `LIMIT` in this file, the rest in
//! `ok/dead_pub/`.

pub struct Widget {
    pub hits: u64,
}

pub fn used_by_other_tests(w: &Widget) -> u64 {
    w.hits
}

pub fn used_by_integration_test() -> Widget {
    Widget { hits: LIMIT }
}

pub fn used_by_perfbench(w: &mut Widget) {
    w.hits += 1;
}

pub const LIMIT: u64 = 64;

// prestage: allow(dead-pub, the worked example a doc page links to)
pub fn kept_by_pragma() {}

/// Restricted visibility is the compiler's dead-code lint's business.
pub(crate) fn crate_only() {}

#[cfg(test)]
mod tests {
    /// Declared in a test region, so never a finding.
    pub fn test_helper() {}
}
