//! The Keff coupling model and solution evaluation.
//!
//! Our instantiation of the formula-based Keff model of the paper's
//! references \[4\] and \[8\], stated in full here:
//!
//! * the region's tracks split into **blocks** at shields and walls;
//! * within a block, a sensitive pair at track distance `d` contributes
//!   `K = 1/d` to both segments;
//! * different blocks do not couple (the shield carries return current);
//! * **capacitive freedom** additionally demands that no sensitive pair be
//!   track-adjacent.
//!
//! The structural facts downstream algorithms rely on — K shrinks when a
//! shield splits a block, grows with same-block sensitive density, and has
//! long (1/d, not exponential) reach — all hold, and are property-tested.

use crate::instance::SinoInstance;
use crate::layout::Layout;

/// Evaluation of a layout against an instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Per-segment total coupling `Kᵢ` (indexed by segment).
    pub k: Vec<f64>,
    /// Number of adjacent sensitive pairs (capacitive violations).
    pub cap_violations: usize,
    /// Per-segment inductive overflow `max(0, Kᵢ − Kth(i))`.
    pub overflow: Vec<f64>,
    /// Occupied tracks.
    pub area: usize,
    /// Shield count.
    pub shields: usize,
    /// Whether the layout satisfies all RLC constraints.
    pub feasible: bool,
}

impl Evaluation {
    /// Sum of inductive overflows — the scalar infeasibility used by the
    /// annealer's cost function.
    pub fn total_overflow(&self) -> f64 {
        self.overflow.iter().sum()
    }

    /// Index and magnitude of the worst inductive overflow, if any.
    pub fn worst_overflow(&self) -> Option<(usize, f64)> {
        self.overflow
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.0)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite overflow"))
            .map(|(i, &v)| (i, v))
    }
}

/// Per-segment coupling `Kᵢ` of a layout under the block Keff model.
///
/// # Panics
///
/// Panics if the layout references segments outside the instance (use
/// [`Layout::validate`] first on untrusted layouts).
pub fn coupling(instance: &SinoInstance, layout: &Layout) -> Vec<f64> {
    let mut k = vec![0.0; instance.n()];
    for (start, segs) in layout.blocks() {
        let _ = start;
        // Positions inside a block are contiguous tracks, so the distance
        // between members is their in-block index difference.
        for i in 0..segs.len() {
            for j in (i + 1)..segs.len() {
                if instance.is_sensitive(segs[i], segs[j]) {
                    let d = (j - i) as f64;
                    let kij = 1.0 / d;
                    k[segs[i]] += kij;
                    k[segs[j]] += kij;
                }
            }
        }
    }
    k
}

/// Number of track-adjacent sensitive pairs.
pub fn cap_violations(instance: &SinoInstance, layout: &Layout) -> usize {
    use crate::layout::Slot;
    let slots = layout.slots();
    let mut count = 0;
    for w in slots.windows(2) {
        if let (Slot::Signal(a), Slot::Signal(b)) = (w[0], w[1]) {
            if instance.is_sensitive(a, b) {
                count += 1;
            }
        }
    }
    count
}

/// Full evaluation: coupling, violations, area, feasibility.
///
/// # Example
///
/// ```
/// use gsino_sino::instance::{SegmentSpec, SinoInstance};
/// use gsino_sino::layout::Layout;
/// use gsino_sino::keff::evaluate;
///
/// # fn main() -> Result<(), gsino_sino::SinoError> {
/// // Two mutually sensitive segments side by side: K = 1 each and one
/// // capacitive violation.
/// let inst = SinoInstance::new(
///     vec![SegmentSpec { net: 0, kth: 0.5 }, SegmentSpec { net: 1, kth: 0.5 }],
///     vec![false, true, true, false],
/// )?;
/// let eval = evaluate(&inst, &Layout::from_order(&[0, 1]));
/// assert_eq!(eval.cap_violations, 1);
/// assert_eq!(eval.k, vec![1.0, 1.0]);
/// assert!(!eval.feasible);
///
/// // A shield between them fixes both problems.
/// let mut shielded = Layout::from_order(&[0, 1]);
/// shielded.insert_shield(1);
/// let eval = evaluate(&inst, &shielded);
/// assert!(eval.feasible);
/// # Ok(())
/// # }
/// ```
pub fn evaluate(instance: &SinoInstance, layout: &Layout) -> Evaluation {
    let k = coupling(instance, layout);
    let cap = cap_violations(instance, layout);
    let overflow: Vec<f64> = k
        .iter()
        .enumerate()
        .map(|(i, &ki)| (ki - instance.segment(i).kth).max(0.0))
        .collect();
    let feasible = cap == 0 && overflow.iter().all(|&o| o == 0.0);
    Evaluation {
        k,
        cap_violations: cap,
        overflow,
        area: layout.area(),
        shields: layout.num_shields(),
        feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::SegmentSpec;
    use crate::layout::Slot;
    use gsino_grid::SensitivityModel;

    fn all_sensitive(n: usize, kth: f64) -> SinoInstance {
        let segs = (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
        SinoInstance::from_model(segs, &SensitivityModel::new(1.0, 1)).unwrap()
    }

    #[test]
    fn inverse_distance_within_block() {
        let inst = all_sensitive(3, 10.0);
        let eval = evaluate(&inst, &Layout::from_order(&[0, 1, 2]));
        // Middle segment: neighbours at distance 1 each → K = 2.
        assert!((eval.k[1] - 2.0).abs() < 1e-12);
        // Ends: 1/1 + 1/2 = 1.5.
        assert!((eval.k[0] - 1.5).abs() < 1e-12);
        assert!((eval.k[2] - 1.5).abs() < 1e-12);
        assert_eq!(eval.cap_violations, 2);
    }

    #[test]
    fn shield_blocks_coupling_entirely() {
        let inst = all_sensitive(2, 10.0);
        let layout =
            Layout::from_slots(vec![Slot::Signal(0), Slot::Shield, Slot::Signal(1)]).unwrap();
        let eval = evaluate(&inst, &layout);
        assert_eq!(eval.k, vec![0.0, 0.0]);
        assert_eq!(eval.cap_violations, 0);
        assert!(eval.feasible);
        assert_eq!(eval.shields, 1);
        assert_eq!(eval.area, 3);
    }

    #[test]
    fn insensitive_pairs_do_not_couple() {
        let inst = SinoInstance::new(
            vec![
                SegmentSpec { net: 0, kth: 1.0 },
                SegmentSpec { net: 1, kth: 1.0 },
            ],
            vec![false; 4],
        )
        .unwrap();
        let eval = evaluate(&inst, &Layout::from_order(&[0, 1]));
        assert_eq!(eval.k, vec![0.0, 0.0]);
        assert!(eval.feasible);
    }

    #[test]
    fn non_adjacent_sensitive_pair_is_cap_free_but_couples() {
        let inst = SinoInstance::new(
            vec![
                SegmentSpec { net: 0, kth: 1.0 },
                SegmentSpec { net: 1, kth: 1.0 },
                SegmentSpec { net: 2, kth: 1.0 },
            ],
            // Only 0↔2 sensitive.
            vec![false, false, true, false, false, false, true, false, false],
        )
        .unwrap();
        let eval = evaluate(&inst, &Layout::from_order(&[0, 1, 2]));
        assert_eq!(eval.cap_violations, 0);
        assert!((eval.k[0] - 0.5).abs() < 1e-12, "long-range 1/d coupling");
        assert!((eval.k[2] - 0.5).abs() < 1e-12);
        assert_eq!(eval.k[1], 0.0);
        assert!(eval.feasible);
    }

    #[test]
    fn inserting_shield_never_increases_k() {
        // Property: splitting any block removes cross terms and keeps
        // within-side distances unchanged. Probed through the delta
        // evaluator (insert, read, undo) instead of cloning `base` and
        // rescanning per trial — the same O(affected-block) path the
        // solvers use, checked here against the from-scratch `coupling`.
        let inst = all_sensitive(6, 0.1);
        let base = Layout::from_order(&[3, 1, 5, 0, 4, 2]);
        let k0 = coupling(&inst, &base);
        let mut delta = crate::delta::DeltaEval::new();
        delta.load(&inst, &base);
        assert_eq!(delta.k_values(&inst), &k0[..]);
        for gap in 0..=base.area() {
            delta.insert_shield(&inst, gap);
            for (i, &k) in k0.iter().enumerate() {
                assert!(delta.k(&inst, i) <= k + 1e-12, "gap {gap} segment {i}");
            }
            delta.remove_shield_at(&inst, gap);
            assert_eq!(delta.k_values(&inst), &k0[..], "undo restores gap {gap}");
        }
    }

    #[test]
    fn overflow_accounting() {
        let inst = all_sensitive(2, 0.4);
        let eval = evaluate(&inst, &Layout::from_order(&[0, 1]));
        assert!((eval.total_overflow() - 1.2).abs() < 1e-12);
        let (worst, v) = eval.worst_overflow().unwrap();
        assert!(worst < 2);
        assert!((v - 0.6).abs() < 1e-12);
        assert!(!eval.feasible);
    }

    #[test]
    fn empty_layout_evaluates_clean() {
        let inst = SinoInstance::new(vec![], vec![]).unwrap();
        let eval = evaluate(&inst, &Layout::from_slots(vec![]).unwrap());
        assert!(eval.feasible);
        assert_eq!(eval.area, 0);
        assert!(eval.worst_overflow().is_none());
    }
}
