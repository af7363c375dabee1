//! Fixture: the caller that makes the second waiver stale.

fn run() {
    opass_core::named_elsewhere();
}
