//! A re-exported item that something also calls stays alive.

pub mod inner {
    pub fn reexported_and_called() -> u64 {
        7
    }
}

pub use inner::reexported_and_called;

fn caller() -> u64 {
    reexported_and_called()
}
