/// Reads are sharded in the serving crate: every worker reads one
/// immutable cut and answers land in query order.
fn bulk(queries: &[u32], out: &mut [bool]) {
    let chunk = queries.len().div_ceil(2).max(1);
    // qpgc-lint: allow(deterministic-iteration) -- bulk reads only: one
    // immutable cut, answers in query order.
    std::thread::scope(|s| {
        for (q, o) in queries.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || o.iter_mut().zip(q).for_each(|(o, &q)| *o = q % 2 == 0));
        }
    });
}
