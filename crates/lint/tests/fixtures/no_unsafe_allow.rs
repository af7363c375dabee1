// Fixture: suppressed case for `no-unsafe`.
pub fn first(bytes: &[u8]) -> u8 {
    assert!(!bytes.is_empty());
    // lint:allow(no-unsafe): index proven in range by the assert above
    unsafe { *bytes.get_unchecked(0) }
}
