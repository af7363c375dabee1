//! Fixture: named by the parent module's `pub use … as …` only.

/// Re-exported under another name.
pub fn reexported() {}
