//! `reexported_only` is named only by the `pub use` below: a re-export
//! moves a name to a new path, it does not use it.

pub mod inner {
    pub fn reexported_only() -> u64 {
        7
    }
}

pub use inner::reexported_only;
