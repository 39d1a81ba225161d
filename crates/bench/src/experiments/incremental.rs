//! Exp-3: efficiency of incremental compression (Figures 12(e)–12(h)).

use qpgc_generators::datasets::{dataset, pattern_dataset};
use qpgc_generators::pattern_gen::{random_pattern, PatternGenConfig};
use qpgc_generators::updates::{delete_batch, insert_batch, mixed_batch};
use qpgc_pattern::bounded::bounded_match;
use qpgc_pattern::compress::compress_b;
use qpgc_pattern::inc_match::IncrementalMatch;
use qpgc_pattern::incremental::IncrementalPattern;
use qpgc_reach::compress::compress_r;
use qpgc_reach::incremental::IncrementalReach;

use crate::harness::{best_of, ExperimentResult, Row, RUNS};

/// Fig. 12(e): `incRCM` vs `compressR` on the socEpinions emulation under
/// growing insertion batches (the paper sweeps up to ~21 % of `|E|`).
pub fn fig12e(scale: usize) -> ExperimentResult {
    inc_rcm_sweep(scale, true)
}

/// Fig. 12(f): the same sweep with deletions (paper: up to ~26 % of `|E|`).
pub fn fig12f(scale: usize) -> ExperimentResult {
    inc_rcm_sweep(scale, false)
}

fn inc_rcm_sweep(scale: usize, insertions: bool) -> ExperimentResult {
    let (id, what, reference) = if insertions {
        (
            "fig12e",
            "insertions",
            "incRCM vs compressR under insertions, best of 7, warm \
             (paper: crossover ≈ 20% of |E|)",
        )
    } else {
        (
            "fig12f",
            "deletions",
            "incRCM vs compressR under deletions, best of 7, warm \
             (paper: crossover ≈ 22% of |E|)",
        )
    };
    let mut res = ExperimentResult::new(id, reference);
    // This sweep needs a graph large enough that recompression is not
    // essentially free, otherwise the crossover the paper reports cannot be
    // observed; cap the scale factor at 25 (≈ 3 000 nodes).
    let fine_scale = if scale > 100 { scale } else { scale.min(25) };
    let g0 = dataset("socEpinions", fine_scale, 0).expect("known dataset");
    // Construction stays outside the clock: every run applies the batch to
    // a fresh clone of this one maintainer.
    let inc0 = IncrementalReach::new(&g0);
    let steps = 5usize;
    for step in 1..=steps {
        // Batch size: step × ~4% of |E|.
        let frac = 0.04 * step as f64;
        let size = ((g0.edge_count() as f64) * frac) as usize;
        let batch = if insertions {
            insert_batch(&g0, size, step as u64)
        } else {
            delete_batch(&g0, size, step as u64)
        };

        // Incremental: from the compression of g0, apply the batch.
        let (stats, t_inc) = best_of(
            RUNS,
            || (g0.clone(), inc0.clone()),
            |(g, inc)| inc.apply(g, &batch),
        );

        // Batch: recompress the updated graph from scratch.
        let mut g_batch = g0.clone();
        batch.apply_to(&mut g_batch);
        let (_, t_batch) = best_of(RUNS, || (), |_| compress_r(&g_batch));

        res.push(
            Row::new(format!("{what} {:.0}% of |E|", frac * 100.0))
                .cell("|ΔG|", batch.len() as f64)
                .cell("incRCM (ms)", t_inc.as_secs_f64() * 1e3)
                .cell("compressR (ms)", t_batch.as_secs_f64() * 1e3)
                .cell("affected classes", stats.affected_classes as f64)
                .cell("changed classes", stats.changed_classes as f64),
        );
    }
    res
}

/// Fig. 12(g): `incPCM` vs `IncBsim` vs `compressB` on the Youtube emulation
/// under growing mixed update batches. Construction stays outside the clock;
/// `incPCM` and `compressB` are best of `RUNS`, `IncBsim` — seconds a row,
/// one step per update — is one run. The fallback columns count the steps
/// whose key regroup handed over to the hybrid kernel.
pub fn fig12g(scale: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig12g",
        "incPCM vs IncBsim vs compressB under mixed updates, best of 7 (IncBsim: 1), warm \
         (paper: incPCM wins below ~5K updates)",
    );
    let fine_scale = if scale > 100 { scale } else { scale.min(50) };
    let g0 = pattern_dataset("Youtube", fine_scale, 0).expect("known dataset");
    let inc0 = IncrementalPattern::new(&g0);
    for step in 1..=5usize {
        let size = (g0.edge_count() / 100) * step; // 1%..5% of |E|
        let batch = mixed_batch(&g0, size, step as u64);
        let fresh = || (g0.clone(), inc0.clone());

        let (stats, t_inc) = best_of(RUNS, fresh, |(g, inc)| inc.apply(g, &batch));
        let (one, t_one_by_one) = best_of(1, fresh, |(g, inc)| inc.apply_one_by_one(g, &batch));

        let mut g_batch = g0.clone();
        batch.apply_to(&mut g_batch);
        let (_, t_batch) = best_of(RUNS, || (), |_| compress_b(&g_batch));

        res.push(
            Row::new(format!("|ΔE| = {}", batch.len()))
                .cell("incPCM (ms)", t_inc.as_secs_f64() * 1e3)
                .cell("IncBsim (ms)", t_one_by_one.as_secs_f64() * 1e3)
                .cell("compressB (ms)", t_batch.as_secs_f64() * 1e3)
                .cell("incPCM fallbacks", stats.hybrid_fallbacks as f64)
                .cell("IncBsim fallbacks", one.hybrid_fallbacks as f64),
        );
    }
    res
}

/// Fig. 12(h): maintaining query answers over the Citation emulation —
/// `IncBMatch` directly on `G` versus `incPCM` + `Match` on the maintained
/// compressed graph.
pub fn fig12h(scale: usize) -> ExperimentResult {
    let mut res = ExperimentResult::new(
        "fig12h",
        "IncBMatch on G vs incPCM+Match on Gr, best of 7, warm \
         (paper: compressed wins beyond ~8K updates)",
    );
    let g0 = pattern_dataset("Citation", scale, 0).expect("known dataset");
    let pattern = random_pattern(&g0, &PatternGenConfig::new(4, 4, 3, 11));
    // Construction stays outside the clock: every run applies the batch to
    // fresh clones of these two maintainers.
    let inc_match0 = IncrementalMatch::new(&g0, pattern.clone());
    let inc_pcm0 = IncrementalPattern::new(&g0);

    for step in 1..=5usize {
        let size = (g0.edge_count() / 100) * step;
        let batch = mixed_batch(&g0, size, 50 + step as u64);

        // Strategy 1: incrementally maintain the match relation on G.
        let (_, t_inc_match) = best_of(
            RUNS,
            || (g0.clone(), inc_match0.clone()),
            |(g, inc_match)| inc_match.apply(g, &batch),
        );

        // Strategy 2: maintain the compressed graph, then run Match on it.
        let (_, t_strategy2) = best_of(
            RUNS,
            || (g0.clone(), inc_pcm0.clone()),
            |(g, inc_pcm)| {
                inc_pcm.apply(g, &batch);
                let compression = inc_pcm.to_compression();
                let on_gr = bounded_match(&compression.graph, &pattern);
                on_gr.map(|m| compression.post_process(&m))
            },
        );

        res.push(
            Row::new(format!("|ΔE| = {}", batch.len()))
                .cell("IncBMatch on G (ms)", t_inc_match.as_secs_f64() * 1e3)
                .cell("incPCM+Match on Gr (ms)", t_strategy2.as_secs_f64() * 1e3),
        );
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12e_rows_have_timings() {
        let res = fig12e(400);
        assert_eq!(res.rows.len(), 5);
        assert!(res.paper_reference.contains("best of 7, warm"));
        for row in &res.rows {
            assert!(row.get("incRCM (ms)").unwrap() >= 0.0);
            assert!(row.get("compressR (ms)").unwrap() > 0.0);
            assert!(row.get("|ΔG|").unwrap() > 0.0);
            let changed = row.get("changed classes").unwrap();
            assert!(changed > 0.0 || row.get("affected classes") == Some(0.0));
        }
    }

    #[test]
    fn fig12h_rows_have_warm_timings() {
        let res = fig12h(400);
        assert_eq!(res.rows.len(), 5);
        assert!(res.paper_reference.contains("best of 7, warm"));
        for row in &res.rows {
            assert!(row.get("IncBMatch on G (ms)").unwrap() > 0.0);
            assert!(row.get("incPCM+Match on Gr (ms)").unwrap() > 0.0);
        }
    }

    // Slow (~2 s): runs three full incremental experiments; CI covers it
    // via `cargo test -- --ignored`.
    #[test]
    #[ignore = "slow experiment run; CI runs it via `cargo test -- --ignored`"]
    fn fig12f_and_g_and_h_produce_rows() {
        assert_eq!(fig12f(400).rows.len(), 5);
        assert_eq!(fig12g(400).rows.len(), 5);
        assert_eq!(fig12h(400).rows.len(), 5);
    }

    // Slow (~3 s): wall-clock comparison over the full fig12g pipeline; CI
    // covers it via `cargo test -- --ignored`.
    #[test]
    #[ignore = "slow experiment run; CI runs it via `cargo test -- --ignored`"]
    fn fig12g_incpcm_not_slower_than_one_by_one() {
        // Batch incremental processing should not lose to re-running the
        // single-update algorithm per update (the paper's IncBsim
        // comparison); allow generous slack for timer noise at tiny scale.
        let res = fig12g(300);
        let total_inc: f64 = res.rows.iter().map(|r| r.get("incPCM (ms)").unwrap()).sum();
        let total_one: f64 = res
            .rows
            .iter()
            .map(|r| r.get("IncBsim (ms)").unwrap())
            .sum();
        assert!(
            total_inc <= total_one * 1.5,
            "incPCM {total_inc}ms vs IncBsim {total_one}ms"
        );
    }
}
