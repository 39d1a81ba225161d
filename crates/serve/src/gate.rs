//! The publication gate: patch the previous snapshot, or rebuild.
//!
//! A batch whose [`PartitionDelta`] churned at most a fixed fraction of the
//! live classes is published by patching the previous snapshot; more than
//! that and the snapshot is rebuilt from scratch. [`GateMode`] is that
//! rule plus the two forced modes tests and benchmarks use to pin a path,
//! and [`GateMode::decide`] is the whole gate: a pure function of the mode
//! and two counts, so routing — and with it every published structure —
//! is identical across runs, thread counts and shards.
//!
//! [`PartitionDelta`]: qpgc_graph::update::PartitionDelta

/// How a store routes each batch between delta-patched and from-scratch
/// snapshot publication. Both served sides (reachability, bisimulation)
/// are routed independently under the same mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GateMode {
    /// The static gate: churn at most this fraction of the live classes
    /// patches (equality included), strictly more rebuilds.
    /// `Fixed(0.0)` disables patching; `Fixed(f64::INFINITY)` forces it —
    /// but prefer the explicit variants below for those.
    Fixed(f64),
    /// Every non-empty delta patches, whatever the churn.
    AlwaysPatch,
    /// Every non-empty delta rebuilds from scratch.
    AlwaysRebuild,
}

impl Default for GateMode {
    /// The production default.
    fn default() -> Self {
        GateMode::Fixed(0.25)
    }
}

impl GateMode {
    /// Routes one non-empty delta that churned `churned` stable classes
    /// out of `live`. Pure: equal arguments always produce the same
    /// decision.
    pub fn decide(self, churned: usize, live: usize) -> GateDecision {
        let patch = match self {
            GateMode::AlwaysPatch => true,
            GateMode::AlwaysRebuild => false,
            // The at-most boundary: churn ≤ threshold patches.
            GateMode::Fixed(threshold) => churned as f64 / live.max(1) as f64 <= threshold,
        };
        GateDecision {
            churned,
            live,
            patch,
        }
    }
}

/// One routing decision, recorded per side in
/// [`ApplyReport`](crate::ApplyReport) so callers can audit the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateDecision {
    /// Stable classes churned by the batch on this side.
    pub churned: usize,
    /// Live classes on this side at decision time.
    pub live: usize,
    /// `true` → the delta-patch path was chosen; `false` → from-scratch.
    pub patch: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Fixed` has at-most semantics: equality patches, strictly above
    /// rebuilds.
    #[test]
    fn fixed_mode_reproduces_the_static_boundary() {
        let at = GateMode::Fixed(0.25).decide(25, 100);
        assert!(at.patch, "churn == threshold must patch");
        let above = GateMode::Fixed(0.25).decide(26, 100);
        assert!(!above.patch, "churn > threshold must rebuild");
        let zero = GateMode::Fixed(0.0).decide(1, 100);
        assert!(!zero.patch, "Fixed(0.0) disables patching");
        let inf = GateMode::Fixed(f64::INFINITY).decide(100, 100);
        assert!(inf.patch, "Fixed(inf) forces patching");
        assert_eq!((at.churned, at.live), (25, 100));
    }

    #[test]
    fn forced_modes_ignore_everything() {
        assert!(GateMode::AlwaysPatch.decide(1000, 1).patch);
        assert!(!GateMode::AlwaysRebuild.decide(0, 1000).patch);
    }
}
