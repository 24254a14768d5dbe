//! Every `pub` item here is dead: `prose_only` is named in this comment,
//! in a doc link and in a string, and none of those is a use.

/// Called only from this file's own test module.
pub fn tested_only() -> u64 {
    7
}

/// Named only in prose, such as this link to [`prose_only`].
pub fn prose_only() -> &'static str {
    "prose_only is never called"
}

pub const UNUSED_LIMIT: usize = 64;

pub static UNUSED_TABLE: [u8; 2] = [0, 1];

#[cfg(test)]
mod tests {
    #[test]
    fn tested_only_is_seven() {
        assert_eq!(super::tested_only(), 7);
    }
}
