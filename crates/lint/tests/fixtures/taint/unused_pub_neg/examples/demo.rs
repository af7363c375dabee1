//! Fixture: an example naming a library item.

fn demo() -> u32 {
    opass_core::CALLED_BY_EXAMPLE
}
