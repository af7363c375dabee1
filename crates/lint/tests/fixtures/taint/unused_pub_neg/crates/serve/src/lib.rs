//! Fixture: another library crate naming a core item.

fn wire() {
    opass_core::called_by_other_crate();
}
