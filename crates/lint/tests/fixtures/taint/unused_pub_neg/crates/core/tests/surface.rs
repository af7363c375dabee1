//! Fixture: an integration test naming a library item.

#[test]
fn calls() {
    opass_core::called_by_test();
}
