//! A seed names the same inputs every time, and different seeds different
//! inputs.

use perfbench::campaign::CampaignInputs;
use perfbench::dist::DistInputs;
use perfbench::lung::LungInputs;
use perfbench::poisson::PoissonInputs;
use perfbench::sys::Rng;

#[test]
fn generator_is_fixed() {
    // SplitMix64's published first output for seed 0
    assert_eq!(Rng::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    let mut r = Rng::new(7);
    for _ in 0..1000 {
        let x = r.uniform(2.0, 3.0);
        assert!((2.0..3.0).contains(&x));
    }
}

#[test]
fn same_seed_same_inputs() {
    for seed in [0, 1, 42, u64::MAX] {
        assert_eq!(LungInputs::from_seed(seed), LungInputs::from_seed(seed));
        assert_eq!(
            PoissonInputs::from_seed(seed),
            PoissonInputs::from_seed(seed)
        );
        assert_eq!(DistInputs::from_seed(seed), DistInputs::from_seed(seed));
        let c = CampaignInputs::from_seed(seed);
        assert_eq!(c, CampaignInputs::from_seed(seed));
        assert_eq!(
            c.spec_text("out"),
            CampaignInputs::from_seed(seed).spec_text("out")
        );
    }
}

#[test]
fn different_seeds_different_inputs() {
    assert_ne!(LungInputs::from_seed(1), LungInputs::from_seed(2));
    assert_ne!(PoissonInputs::from_seed(1), PoissonInputs::from_seed(2));
    assert_ne!(DistInputs::from_seed(1), DistInputs::from_seed(2));
    assert_ne!(
        CampaignInputs::from_seed(1).spec_text("out"),
        CampaignInputs::from_seed(2).spec_text("out")
    );
}

#[test]
fn generated_campaign_spec_is_valid() {
    let text = CampaignInputs::from_seed(3).spec_text("perfbench/run/x");
    let spec = dgflow::runtime::CampaignSpec::parse_str(&text, "perfbench.toml")
        .expect("generated spec validates");
    // the duct degree sweep expands to two cases, plus the lung case
    assert_eq!(spec.cases.len(), 3);
}

#[test]
fn poisson_reference_norm_is_positive_for_every_seed() {
    for seed in 0..100 {
        let n = PoissonInputs::from_seed(seed).reference_norm();
        assert!(n.is_finite() && n > 0.0, "seed {seed}: {n}");
    }
}
