//! Property-based tests of the checkpoint format: serialization is a
//! bijection on valid snapshots, and *no* prefix truncation or byte
//! corruption of a valid stream may panic or allocate unboundedly —
//! every malformed input must come back as a clean `io::Error`. This is
//! the robustness contract the campaign runtime's crash recovery rests
//! on: a checkpoint file torn mid-write is ordinary input, not a bug.

use dgflow_core::checkpoint::Checkpoint;
use proptest::prelude::*;

/// Deterministic but irregular field content derived from a seed.
fn field(seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            // map to a finite float in roughly [-1, 1]
            (x as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

fn sample(seed: u64, n_u: usize, n_p: usize, n_c: usize) -> Checkpoint {
    Checkpoint {
        time: field(seed, 1)[0].abs(),
        dt: 1e-4,
        dt_old: 9e-5,
        step_count: seed % 100_000,
        velocity: field(seed ^ 1, n_u),
        velocity_old: field(seed ^ 2, n_u),
        conv_old: field(seed ^ 3, n_u),
        pressure: field(seed ^ 4, n_p),
        delta_p: 1200.0,
        compartment_volumes: field(seed ^ 5, n_c),
        cycle_inhaled: field(seed ^ 6, 1)[0].abs(),
        last_cycle: seed % 1000,
        tidal_history: field(seed ^ 7, n_c),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_is_identity(
        seed in 0u64..1_000_000,
        n_u in 0usize..400,
        n_p in 0usize..150,
        n_c in 0usize..8,
    ) {
        let ck = sample(seed, n_u, n_p, n_c);
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        let back = Checkpoint::read(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(ck, back);
    }

    #[test]
    fn every_truncation_is_a_clean_error(
        seed in 0u64..1_000_000,
        n_u in 1usize..60,
        cut_frac in 0.0f64..1.0,
    ) {
        let ck = sample(seed, n_u, n_u / 2, 2);
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        // strict prefix: always an error, never a panic
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        let cut = cut.min(buf.len() - 1);
        prop_assert!(Checkpoint::read(&mut buf[..cut].to_vec().as_slice()).is_err());
    }

    #[test]
    fn single_byte_corruption_never_panics(
        seed in 0u64..1_000_000,
        n_u in 1usize..40,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let ck = sample(seed, n_u, n_u / 2, 1);
        let mut buf = Vec::new();
        ck.write(&mut buf).unwrap();
        let pos = (((buf.len() - 1) as f64) * pos_frac) as usize;
        buf[pos] ^= flip;
        // Corrupting a payload byte may still parse (floats are opaque);
        // corrupting structure must error. Either way: no panic, and a
        // success must preserve the field layout.
        if let Ok(back) = Checkpoint::read(&mut buf.as_slice()) {
            prop_assert_eq!(back.velocity.len(), ck.velocity.len());
            prop_assert_eq!(back.pressure.len(), ck.pressure.len());
        }
    }
}

#[test]
fn appended_garbage_is_ignored_by_sized_format() {
    // The format is self-sized: trailing bytes (e.g. from a rename over a
    // longer stale file on a non-atomic filesystem) do not corrupt the
    // parse of the leading snapshot.
    let ck = sample(7, 30, 12, 2);
    let mut buf = Vec::new();
    ck.write(&mut buf).unwrap();
    buf.extend_from_slice(&[0xAB; 64]);
    let back = Checkpoint::read(&mut buf.as_slice()).unwrap();
    assert_eq!(ck, back);
}
