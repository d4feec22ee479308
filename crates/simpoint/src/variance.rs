//! Intra-cluster variance sweeps (the Fig. 4 analysis).
//!
//! Fig. 4 of the paper shows, per benchmark, how the average variance in
//! phase similarity within clusters grows as the number of available
//! clusters shrinks — forcing phases to share clusters costs accuracy.

use crate::bbv::Bbv;
use crate::kmeans::kmeans_sweep;
use crate::project::RandomProjection;
use crate::SimPointOptions;
use sampsim_exec::SERIAL;

/// For each `k` in `ks`, clusters the (normalized, projected) BBVs and
/// reports the average intra-cluster variance. Returns `(k, variance)`
/// pairs in the order given. The clusterings are the ones
/// [`crate::SimPointStrategy::analyze`] scores: [`kmeans_sweep`] under
/// the same options.
///
/// # Panics
///
/// Panics if `bbvs` is empty or any `k` is zero.
pub fn variance_sweep(bbvs: &[Bbv], ks: &[usize], options: &SimPointOptions) -> Vec<(usize, f64)> {
    assert!(!bbvs.is_empty(), "no slices to analyze");
    assert!(ks.iter().all(|&k| k > 0), "k must be positive");
    let projection = RandomProjection::new(options.dim, options.seed);
    let data = projection.project_all_normalized(bbvs);
    let sweep = kmeans_sweep(&data, bbvs.len(), ks, options, SERIAL).expect("validated inputs");
    ks.iter()
        .zip(sweep)
        .map(|(&k, clustering)| (k, clustering.avg_variance()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbvs() -> Vec<Bbv> {
        (0..120u32)
            .map(|i| {
                let phase = (i % 6) * 10;
                Bbv::from_counts(vec![(phase, 900), (phase + 1, 100 + i % 3)])
            })
            .collect()
    }

    #[test]
    fn variance_decreases_with_more_clusters() {
        let sweep = variance_sweep(&bbvs(), &[1, 2, 4, 6], &SimPointOptions::default());
        assert_eq!(sweep.len(), 4);
        for w in sweep.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "variance should not grow with k: {sweep:?}"
            );
        }
        // At the true phase count the clusters are nearly pure.
        assert!(sweep[3].1 < sweep[0].1 * 0.25, "{sweep:?}");
    }

    #[test]
    #[should_panic(expected = "no slices")]
    fn empty_panics() {
        variance_sweep(&[], &[1], &SimPointOptions::default());
    }
}

#[cfg(test)]
mod sweep_extra_tests {
    use super::*;

    #[test]
    fn sweep_reports_requested_ks_in_order() {
        let bbvs: Vec<Bbv> = (0..30u32)
            .map(|i| Bbv::from_counts(vec![((i % 3) * 5, 100)]))
            .collect();
        let sweep = variance_sweep(&bbvs, &[3, 1, 2], &SimPointOptions::default());
        assert_eq!(
            sweep.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![3, 1, 2]
        );
        // Three pure behaviours: k=3 clusters perfectly.
        assert!(sweep[0].1 < 1e-9, "k=3 variance {}", sweep[0].1);
        assert!(sweep[1].1 > sweep[0].1);
    }
}
