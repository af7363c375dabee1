// Positive fixture: a chunked trace parser whose merge depends on worker
// completion order — the failure any parallel path in `opass-trace`
// must avoid. Linted under a deterministic-crate path; never compiled.

/// Parsed chunks arrive through a channel in whatever order workers
/// finish, so the record order varies with thread timing.
fn parse_chunks_by_completion(chunks: Vec<&str>) -> Vec<usize> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        for chunk in &chunks {
            let tx = tx.clone();
            scope.spawn(move || tx.send(chunk.lines().count()));
        }
    });
    drop(tx);
    rx.iter().collect()
}

/// Workers push parsed records into a shared Vec under a lock — append
/// order is scheduling order, not chunk order.
fn parse_chunks_through_shared_vec(chunks: Vec<&str>) -> Vec<String> {
    let records = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for chunk in chunks {
            scope.spawn(|| {
                records
                    .lock()
                    .expect("poisoned")
                    .extend(chunk.lines().map(str::to_string));
            });
        }
    });
    records.into_inner().expect("poisoned")
}
