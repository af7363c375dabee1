// Negative fixture: the 1BRC merge discipline —
// newline-snapped chunk splits, one scoped worker per chunk, results
// concatenated by joining handles in spawn order. Linted under a
// deterministic-crate path; never compiled.

fn parse_chunks_in_spawn_order(chunks: Vec<&str>) -> Vec<usize> {
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in &chunks {
            handles.push(scope.spawn(move || chunk.lines().count()));
        }
        // Join in spawn order: the concatenation must match the
        // sequential parse regardless of which worker finishes first.
        for h in handles {
            out.push(h.join().expect("parser worker panicked"));
        }
    });
    out
}
