//! tf·idf term weighting (Salton & Buckley, reference \[6\] of the paper).

use std::sync::OnceLock;

/// Term frequencies below this read `1 + ln tf` from a table. Corpus
/// documents run to a few hundred tokens, so nearly every posting does.
const LOG_TF_TABLE: usize = 64;

/// `1 + ln tf`, computed once per small `tf` by the same expression as
/// the fallback, so a table read and a fresh `ln` give the same bits.
fn log_tf(tf: usize) -> f64 {
    static TABLE: OnceLock<[f64; LOG_TF_TABLE]> = OnceLock::new();
    let fresh = |tf: usize| 1.0 + (tf as f64).ln();
    match TABLE.get_or_init(|| std::array::from_fn(fresh)).get(tf) {
        Some(&w) => w,
        None => fresh(tf),
    }
}

/// Classic log-scaled tf·idf weight: `(1 + ln tf) · idf` for `tf > 0`,
/// zero otherwise.
pub fn tf_idf_weight(tf: usize, idf: f64) -> f64 {
    if tf == 0 {
        0.0
    } else {
        log_tf(tf) * idf
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

    #[test]
    fn table_matches_fresh_ln_bit_for_bit() {
        for tf in 1..LOG_TF_TABLE * 2 {
            for idf in [0.1, 1.0, 3.2, 7.77] {
                let fresh = (1.0 + (tf as f64).ln()) * idf;
                assert_eq!(tf_idf_weight(tf, idf).to_bits(), fresh.to_bits(), "tf={tf}");
            }
        }
    }
}
