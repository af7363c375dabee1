//! Fixture: every public item is named by some other file, or is not a
//! candidate at all.

mod inner;

pub use inner::reexported as alias;

/// Called from another crate.
pub fn called_by_other_crate() {}

/// Called only from this crate's `tests/`.
pub fn called_by_test() {}

/// Called only from the benchmark package.
pub fn called_by_bench() {}

/// Called only from an example.
pub const CALLED_BY_EXAMPLE: u32 = 1;

/// Restricted visibility is not public surface.
pub(crate) fn scoped() {}

#[cfg(test)]
mod tests {
    /// Test-only helpers are the test module's business.
    pub fn test_helper() {}
}
