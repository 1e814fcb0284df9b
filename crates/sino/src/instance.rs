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
    /// The symmetric sensitivity matrix as bit rows: row `i` is the
    /// `words` words starting at `i * words`, and bit `j` of it (word
    /// `j / 64`, bit `j % 64`) is set iff `i` and `j` are mutually
    /// sensitive. The diagonal is always clear.
    sensitive: Vec<u64>,
    /// Words per row: `n.div_ceil(64)`.
    words: usize,
}

impl Clone for SinoInstance {
    fn clone(&self) -> Self {
        SinoInstance {
            segments: self.segments.clone(),
            sensitive: self.sensitive.clone(),
            words: self.words,
        }
    }

    /// Reuses `self`'s allocations: Phase III's pass-2 workers copy one
    /// region instance per trial into the same buffer.
    fn clone_from(&mut self, source: &Self) {
        self.segments.clone_from(&source.segments);
        self.sensitive.clone_from(&source.sensitive);
        self.words = source.words;
    }
}

impl SinoInstance {
    /// Builds an instance using the circuit-level [`SensitivityModel`].
    ///
    /// # Errors
    ///
    /// [`SinoError::BadBudget`] for non-positive or non-finite budgets.
    pub fn from_model(segments: Vec<SegmentSpec>, model: &SensitivityModel) -> Result<Self> {
        check_budgets(&segments)?;
        let n = segments.len();
        let words = n.div_ceil(64);
        let mut sensitive = vec![0; n * words];
        for i in 0..n {
            for j in (i + 1)..n {
                if model.is_sensitive(segments[i].net, segments[j].net) {
                    set_pair(&mut sensitive, words, i, j);
                }
            }
        }
        Ok(SinoInstance {
            segments,
            sensitive,
            words,
        })
    }

    /// Builds an instance from an explicit sensitivity matrix (row-major,
    /// `n × n`; the diagonal is ignored and the matrix is symmetrized with
    /// logical OR).
    ///
    /// # Errors
    ///
    /// * [`SinoError::MalformedLayout`] if the matrix is not `n × n`.
    /// * [`SinoError::BadBudget`] for invalid budgets.
    pub fn new(segments: Vec<SegmentSpec>, matrix: Vec<bool>) -> Result<Self> {
        let n = segments.len();
        if matrix.len() != n * n {
            return Err(SinoError::MalformedLayout {
                reason: "sensitivity matrix size",
            });
        }
        check_budgets(&segments)?;
        let words = n.div_ceil(64);
        let mut sensitive = vec![0; n * words];
        for i in 0..n {
            for j in (i + 1)..n {
                if matrix[i * n + j] || matrix[j * n + i] {
                    set_pair(&mut sensitive, words, i, j);
                }
            }
        }
        Ok(SinoInstance {
            segments,
            sensitive,
            words,
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
        self.sensitive[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// Segment `i`'s row of the sensitivity matrix: bit `j % 64` of word
    /// `j / 64` is set iff `i` and `j` are mutually sensitive (bit `i`
    /// never is).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn sensitivity_row(&self, i: usize) -> &[u64] {
        assert!(i < self.n(), "segment index out of range");
        &self.sensitive[i * self.words..(i + 1) * self.words]
    }

    /// How many other segments are sensitive to segment `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn partner_count(&self, i: usize) -> usize {
        self.sensitivity_row(i)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The local sensitivity `Sᵢ` of segment `i`: the fraction of the other
    /// segments sensitive to it (Formula (3)'s regressor).
    pub fn local_sensitivity(&self, i: usize) -> f64 {
        let n = self.n();
        if n <= 1 {
            return 0.0;
        }
        self.partner_count(i) as f64 / (n - 1) as f64
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

/// Rejects non-positive or non-finite budgets.
fn check_budgets(segments: &[SegmentSpec]) -> Result<()> {
    for (i, s) in segments.iter().enumerate() {
        if !(s.kth.is_finite() && s.kth > 0.0) {
            return Err(SinoError::BadBudget {
                segment: i,
                kth: s.kth,
            });
        }
    }
    Ok(())
}

/// Marks `i` and `j` (`i != j`) mutually sensitive in bit rows of
/// `words` words each.
fn set_pair(rows: &mut [u64], words: usize, i: usize, j: usize) {
    rows[i * words + j / 64] |= 1 << (j % 64);
    rows[j * words + i / 64] |= 1 << (i % 64);
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
    fn bit_rows_span_words_past_64() {
        // 70 segments: rows take two words. Segment 66 is sensitive to
        // 0, 63 and 64 only (set one-sided, symmetrized by `new`).
        let n = 70;
        let mut m = vec![false; n * n];
        for j in [0, 63, 64] {
            m[66 * n + j] = true;
        }
        m[66 * n + 66] = true; // the diagonal is cleared
        let inst = SinoInstance::new(specs(n), m).unwrap();
        for i in 0..n {
            for j in 0..n {
                let expect = i != j
                    && ((i == 66 && [0, 63, 64].contains(&j))
                        || (j == 66 && [0, 63, 64].contains(&i)));
                assert_eq!(inst.is_sensitive(i, j), expect, "({i}, {j})");
            }
        }
        assert_eq!(inst.sensitivity_row(66), &[1 | 1 << 63, 1]);
        assert_eq!(inst.partner_count(66), 3);
        assert_eq!(inst.partner_count(64), 1);
        assert_eq!(inst.local_sensitivity(66), 3.0 / 69.0);
        // The model path builds the same rows as the explicit matrix.
        let model = SensitivityModel::new(0.4, 11);
        let from_model = SinoInstance::from_model(specs(n), &model).unwrap();
        let matrix = (0..n * n)
            .map(|x| x / n != x % n && model.is_sensitive((x / n) as u32, (x % n) as u32))
            .collect();
        assert_eq!(from_model, SinoInstance::new(specs(n), matrix).unwrap());
    }

    #[test]
    fn local_sensitivity_singleton_is_zero() {
        let inst = SinoInstance::new(specs(1), vec![false; 1]).unwrap();
        assert_eq!(inst.local_sensitivity(0), 0.0);
    }
}
