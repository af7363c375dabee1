//! Fixture: the benchmark package naming a library item.

fn probe() {
    opass_core::called_by_bench();
}
