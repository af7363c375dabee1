//! Fixture: public items that no other file names. Another file mentions
//! one of them, but only in comments and a string literal.

/// Named only here.
pub const LIMIT: u32 = 3;

/// Named only here.
pub fn orphan() -> u32 {
    LIMIT
}

/// Named elsewhere only in prose.
pub fn mentioned_in_prose() {}
