//! Pinned-seed smoke for the position-bias debiasing experiment
//! (`DebiasConfig::default()`): on a PBM-biased log the IPW adjuster
//! beats the naive adjuster on golden NDCG (exact sign test, p < 0.05),
//! and on an unbiased log the two arms tie.

use ctxrank_bench::{run_debias_experiment, DebiasConfig};
use ctxrank_eval::DebiasVerdict;

#[test]
fn pinned_seed_pbm_log_ipw_beats_naive() {
    let report = run_debias_experiment(&DebiasConfig::default());
    assert_eq!(report.mode, "pbm");
    assert_eq!(report.stories, 120);
    assert_eq!(report.events, 120 * 48 * 8);
    assert_eq!(
        report.outcome.verdict,
        DebiasVerdict::Win,
        "sign test: {:?}",
        report.outcome.sign_test
    );
    assert!(report.outcome.sign_test.p_value < 0.05);
    assert!(
        report.outcome.mean_ndcg_treatment > report.outcome.mean_ndcg_control,
        "ipw {} vs naive {}",
        report.outcome.mean_ndcg_treatment,
        report.outcome.mean_ndcg_control
    );
    // The EM curve recovered a decaying examination profile without
    // ever seeing a relevance label.
    let fitted = &report.fitted_propensities;
    assert_eq!(fitted.len(), 8);
    assert!((fitted[0] - 1.0).abs() < 1e-12, "normalized to rank 0");
    assert!(fitted[7] < 0.5 * fitted[0], "{fitted:?}");
}

#[test]
fn pinned_seed_unbiased_log_ties() {
    let report = run_debias_experiment(&DebiasConfig {
        biased: false,
        ..DebiasConfig::default()
    });
    assert_eq!(report.mode, "unbiased");
    assert_eq!(report.outcome.verdict, DebiasVerdict::Tie);
    assert!(report.outcome.sign_test.p_value >= 0.05);
    // Without bias the fitted curve stays near-flat: no rank loses more
    // than a sliver of examination.
    for &rel in &report.fitted_propensities {
        assert!(rel > 0.8, "{:?}", report.fitted_propensities);
    }
}
