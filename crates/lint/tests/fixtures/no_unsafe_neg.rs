// Fixture: negative case for `no-unsafe` — the word in a string, a
// comment (unsafe) or a longer identifier is not the keyword.
pub fn describe(unsafe_looking: u8) -> String {
    format!("unsafe is a keyword, {unsafe_looking} is a parameter")
}
