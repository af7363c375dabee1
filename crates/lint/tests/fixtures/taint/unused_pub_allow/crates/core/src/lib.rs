//! Fixture: one audited waiver and one stale waiver.

// lint:allow(unused-pub): kept public for a downstream tool outside the workspace
pub fn waived() {}

// lint:allow(unused-pub): stale, the CLI names this item now
pub fn named_elsewhere() {}
