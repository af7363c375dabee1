//! Fixture: `mentioned_in_prose` appears here only in comments and a
//! string literal, which are not references.

// Calls mentioned_in_prose? No: it only says so.
/// Prints the name `mentioned_in_prose` without calling it.
fn report() {
    println!("mentioned_in_prose");
}
