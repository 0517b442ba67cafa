//! tf·idf term weighting (Salton & Buckley, reference \[6\] of the paper).

/// Classic log-scaled tf·idf weight: `(1 + ln tf) · idf` for `tf > 0`,
/// zero otherwise.
pub fn tf_idf_weight(tf: usize, idf: f64) -> f64 {
    if tf == 0 {
        0.0
    } else {
        (1.0 + (tf as f64).ln()) * idf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_zero_tf() {
        assert_eq!(tf_idf_weight(0, 3.0), 0.0);
    }

    #[test]
    fn weight_monotone_in_tf_and_idf() {
        assert!(tf_idf_weight(2, 1.0) > tf_idf_weight(1, 1.0));
        assert!(tf_idf_weight(1, 2.0) > tf_idf_weight(1, 1.0));
    }
}
