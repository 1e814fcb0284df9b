//! SINO problem instances.

use crate::{Result, SinoError};
use gsino_grid::net::NetId;
use gsino_grid::sensitivity::SensitivityModel;

/// One net segment crossing the region, with its inductive budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentSpec {
    /// The owning net.
    pub net: NetId,
    /// Inductive coupling bound `Kth` for this segment (paper §3.1).
    pub kth: f64,
}

/// A SINO instance: the segments sharing a region/direction and their
/// pairwise sensitivity.
///
/// # Example
///
/// ```
/// use gsino_grid::SensitivityModel;
/// use gsino_sino::instance::{SegmentSpec, SinoInstance};
///
/// # fn main() -> Result<(), gsino_sino::SinoError> {
/// let segs = vec![
///     SegmentSpec { net: 0, kth: 1.0 },
///     SegmentSpec { net: 1, kth: 1.0 },
/// ];
/// let inst = SinoInstance::from_model(segs, &SensitivityModel::new(1.0, 1))?;
/// assert_eq!(inst.n(), 2);
/// assert!(inst.is_sensitive(0, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq)]
pub struct SinoInstance {
    segments: Vec<SegmentSpec>,
    /// Row-major symmetric boolean matrix, `n × n`.
    sensitive: Vec<bool>,
}

impl Clone for SinoInstance {
    fn clone(&self) -> Self {
        SinoInstance {
            segments: self.segments.clone(),
            sensitive: self.sensitive.clone(),
        }
    }

    /// Reuses `self`'s allocations: Phase III's pass-2 workers copy one
    /// region instance per trial into the same buffer.
    fn clone_from(&mut self, source: &Self) {
        self.segments.clone_from(&source.segments);
        self.sensitive.clone_from(&source.sensitive);
    }
}

impl SinoInstance {
    /// Builds an instance using the circuit-level [`SensitivityModel`].
    ///
    /// # Errors
    ///
    /// [`SinoError::BadBudget`] for non-positive or non-finite budgets.
    pub fn from_model(segments: Vec<SegmentSpec>, model: &SensitivityModel) -> Result<Self> {
        let n = segments.len();
        let mut sensitive = vec![false; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let s = model.is_sensitive(segments[i].net, segments[j].net);
                sensitive[i * n + j] = s;
                sensitive[j * n + i] = s;
            }
        }
        Self::new(segments, sensitive)
    }

    /// Builds an instance from an explicit sensitivity matrix (row-major,
    /// `n × n`; the diagonal is ignored and the matrix is symmetrized with
    /// logical OR).
    ///
    /// # Errors
    ///
    /// * [`SinoError::MalformedLayout`] if the matrix is not `n × n`.
    /// * [`SinoError::BadBudget`] for invalid budgets.
    pub fn new(segments: Vec<SegmentSpec>, mut sensitive: Vec<bool>) -> Result<Self> {
        let n = segments.len();
        if sensitive.len() != n * n {
            return Err(SinoError::MalformedLayout {
                reason: "sensitivity matrix size",
            });
        }
        for (i, s) in segments.iter().enumerate() {
            if !(s.kth.is_finite() && s.kth > 0.0) {
                return Err(SinoError::BadBudget {
                    segment: i,
                    kth: s.kth,
                });
            }
        }
        for i in 0..n {
            sensitive[i * n + i] = false;
            for j in (i + 1)..n {
                let s = sensitive[i * n + j] || sensitive[j * n + i];
                sensitive[i * n + j] = s;
                sensitive[j * n + i] = s;
            }
        }
        Ok(SinoInstance {
            segments,
            sensitive,
        })
    }

    /// Number of segments.
    pub fn n(&self) -> usize {
        self.segments.len()
    }

    /// The segment specs.
    pub fn segments(&self) -> &[SegmentSpec] {
        &self.segments
    }

    /// One segment spec.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn segment(&self, i: usize) -> SegmentSpec {
        self.segments[i]
    }

    /// Replaces a segment's budget (used by Phase III re-budgeting).
    ///
    /// # Errors
    ///
    /// [`SinoError::BadBudget`] for an invalid new budget.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_kth(&mut self, i: usize, kth: f64) -> Result<()> {
        if !(kth.is_finite() && kth > 0.0) {
            return Err(SinoError::BadBudget { segment: i, kth });
        }
        self.segments[i].kth = kth;
        Ok(())
    }

    /// Whether segments `i` and `j` are mutually sensitive.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn is_sensitive(&self, i: usize, j: usize) -> bool {
        let n = self.n();
        assert!(i < n && j < n, "segment index out of range");
        self.sensitive[i * n + j]
    }

    /// The local sensitivity `Sᵢ` of segment `i`: the fraction of the other
    /// segments sensitive to it (Formula (3)'s regressor).
    pub fn local_sensitivity(&self, i: usize) -> f64 {
        let n = self.n();
        if n <= 1 {
            return 0.0;
        }
        let cnt = (0..n)
            .filter(|&j| j != i && self.is_sensitive(i, j))
            .count();
        cnt as f64 / (n - 1) as f64
    }

    /// Sum of local sensitivities `Σ Sᵢ` and of squares `Σ Sᵢ²`.
    pub fn sensitivity_sums(&self) -> (f64, f64) {
        let mut s1 = 0.0;
        let mut s2 = 0.0;
        for i in 0..self.n() {
            let s = self.local_sensitivity(i);
            s1 += s;
            s2 += s * s;
        }
        (s1, s2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: usize) -> Vec<SegmentSpec> {
        (0..n)
            .map(|i| SegmentSpec {
                net: i as u32,
                kth: 1.0,
            })
            .collect()
    }

    #[test]
    fn from_model_symmetry() {
        let inst = SinoInstance::from_model(specs(6), &SensitivityModel::new(0.5, 3)).unwrap();
        for i in 0..6 {
            assert!(!inst.is_sensitive(i, i));
            for j in 0..6 {
                assert_eq!(inst.is_sensitive(i, j), inst.is_sensitive(j, i));
            }
        }
    }

    #[test]
    fn explicit_matrix_is_symmetrized() {
        let mut m = vec![false; 4];
        m[1] = true; // only upper triangle set
        let inst = SinoInstance::new(specs(2), m).unwrap();
        assert!(inst.is_sensitive(1, 0));
    }

    #[test]
    fn diagonal_cleared() {
        let m = vec![true; 4];
        let inst = SinoInstance::new(specs(2), m).unwrap();
        assert!(!inst.is_sensitive(0, 0));
        assert!(inst.is_sensitive(0, 1));
    }

    #[test]
    fn bad_budget_rejected() {
        let mut s = specs(2);
        s[1].kth = 0.0;
        assert!(matches!(
            SinoInstance::new(s, vec![false; 4]),
            Err(SinoError::BadBudget { segment: 1, .. })
        ));
        let mut s = specs(1);
        s[0].kth = f64::NAN;
        assert!(SinoInstance::new(s, vec![false; 1]).is_err());
    }

    #[test]
    fn bad_matrix_size_rejected() {
        assert!(matches!(
            SinoInstance::new(specs(2), vec![false; 3]),
            Err(SinoError::MalformedLayout { .. })
        ));
    }

    #[test]
    fn set_kth_validates() {
        let mut inst = SinoInstance::new(specs(2), vec![false; 4]).unwrap();
        inst.set_kth(0, 2.0).unwrap();
        assert_eq!(inst.segment(0).kth, 2.0);
        assert!(inst.set_kth(0, -1.0).is_err());
    }

    #[test]
    fn local_sensitivity_full_rate() {
        let inst = SinoInstance::from_model(specs(5), &SensitivityModel::new(1.0, 1)).unwrap();
        for i in 0..5 {
            assert_eq!(inst.local_sensitivity(i), 1.0);
        }
        let (s1, s2) = inst.sensitivity_sums();
        assert_eq!(s1, 5.0);
        assert_eq!(s2, 5.0);
    }

    #[test]
    fn local_sensitivity_singleton_is_zero() {
        let inst = SinoInstance::new(specs(1), vec![false; 1]).unwrap();
        assert_eq!(inst.local_sensitivity(0), 0.0);
    }
}
