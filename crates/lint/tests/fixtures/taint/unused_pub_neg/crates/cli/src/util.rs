//! Fixture: the CLI is not a library crate, so its public items are not
//! candidates.

/// Named by no other file, and not a finding.
pub fn cli_only() {}
