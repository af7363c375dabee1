// Fixture: positive cases for `no-unsafe` — lifting the workspace's
// deny, an unsafe impl, and an unsafe block each count once per line.
#![allow(unsafe_code)]

pub struct Handle(*mut u8);

unsafe impl Send for Handle {}

pub fn first(bytes: &[u8]) -> u8 {
    unsafe { *bytes.get_unchecked(0) }
}
