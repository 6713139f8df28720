//! Property tests of the engine snapshot layer
//! (`rsz_offline::engine::snapshot` + `PrefixDp::{save_state,
//! restore_state}`).
//!
//! The contract: seal a mid-horizon [`PrefixDp`] into the versioned,
//! checksummed envelope, restore it into a freshly built solver (same
//! instance, same options), step the remaining slots — and every
//! decision and every prefix-optimal cost is **bit-identical** to the
//! uninterrupted run, across the {engine} × {cache} × {grid} matrix.
//! Corrupting any single byte of the sealed snapshot must fail
//! structurally (checksum, magic, version, or a field guard) — never
//! panic, never restore into garbage.

use proptest::prelude::*;
use rsz_core::{CostModel, GtOracle, Instance, ServerType};
use rsz_dispatch::{CachedDispatcher, Dispatcher};
use rsz_offline::incremental::PrefixDp;
use rsz_offline::{Decoder, DpOptions, Encoder, GridMode, SnapshotError};

#[derive(Clone, Debug)]
struct Spec {
    counts: Vec<u32>,
    load_fracs: Vec<f64>,
    cut_frac: f64,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (1..=2_usize).prop_flat_map(|d| {
        (
            prop::collection::vec(2..=3_u32, d..=d),
            prop::collection::vec(0.0..1.0_f64, 3..=7),
            0.1..0.9_f64,
        )
            .prop_map(|(counts, load_fracs, cut_frac)| Spec {
                counts,
                load_fracs,
                cut_frac,
            })
    })
}

fn build(spec: &Spec) -> Instance {
    let types: Vec<ServerType> = spec
        .counts
        .iter()
        .enumerate()
        .map(|(j, &m)| {
            ServerType::new(
                format!("t{j}"),
                m,
                1.0 + j as f64,
                1.0 + 0.5 * j as f64,
                CostModel::linear(0.4 + 0.2 * j as f64, 1.0),
            )
        })
        .collect();
    let cap: f64 = types.iter().map(|ty| f64::from(ty.count) * ty.capacity).sum();
    let loads: Vec<f64> = spec.load_fracs.iter().map(|f| f * cap).collect();
    Instance::builder().server_types(types).loads(loads).build().unwrap()
}

/// Step the full horizon uninterrupted; step to `cut`, seal, restore
/// into a fresh solver, finish — and demand bit-identity throughout.
fn round_trip(
    instance: &Instance,
    oracle: &(impl GtOracle + Sync),
    options: DpOptions,
    cut_frac: f64,
) {
    let horizon = instance.horizon();
    let cut = ((horizon as f64 * cut_frac) as usize).clamp(1, horizon - 1);

    let mut uninterrupted = PrefixDp::new(instance, options);
    let mut want = Vec::with_capacity(horizon);
    for t in 0..horizon {
        let config = uninterrupted.step(instance, oracle, t);
        want.push((config, uninterrupted.prefix_opt_cost()));
    }

    let mut first = PrefixDp::new(instance, options);
    for t in 0..cut {
        first.step(instance, oracle, t);
    }
    let mut enc = Encoder::new();
    first.save_state(&mut enc);
    let sealed = enc.into_sealed();

    let mut resumed = PrefixDp::new(instance, options);
    let mut dec = Decoder::from_sealed(&sealed).expect("sealed snapshot must open");
    resumed.restore_state(instance, &mut dec).expect("restore into same-options solver");
    assert_eq!(resumed.slots_processed(), cut);
    for (t, (want_config, want_cost)) in want.iter().enumerate().take(horizon).skip(cut) {
        let config = resumed.step(instance, oracle, t);
        assert_eq!(&config, want_config, "slot {t}: decision diverged after restore");
        assert_eq!(
            resumed.prefix_opt_cost().to_bits(),
            want_cost.to_bits(),
            "slot {t}: prefix-optimal cost diverged after restore"
        );
    }

    // Every single-byte corruption of the sealed bytes fails
    // structurally. Byte 7 is the version, bytes 0..7 the magic, the
    // tail the checksum; everything between is checksummed payload.
    for idx in 0..sealed.len() {
        let mut bad = sealed.clone();
        bad[idx] ^= 0x40;
        let failed = match Decoder::from_sealed(&bad) {
            Err(_) => true,
            Ok(mut dec) => {
                let mut victim = PrefixDp::new(instance, options);
                victim.restore_state(instance, &mut dec).is_err()
            }
        };
        assert!(failed, "flipping byte {idx} went unnoticed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prefix_dp_round_trips_across_the_matrix(spec in spec_strategy()) {
        let instance = build(&spec);
        for grid in [GridMode::Full, GridMode::Gamma(1.5)] {
            let options = DpOptions { grid, ..DpOptions::default() };
            round_trip(&instance, &Dispatcher::new(), options, spec.cut_frac);
            round_trip(&instance, &CachedDispatcher::new(&instance), options, spec.cut_frac);
        }
    }
}

#[test]
fn sealed_envelope_reports_specific_failures() {
    let mut enc = Encoder::new();
    enc.put_u64(0xDEAD_BEEF);
    let sealed = enc.into_sealed();

    // Truncation below the fixed envelope overhead.
    assert_eq!(Decoder::from_sealed(&sealed[..4]).unwrap_err(), SnapshotError::Truncated);

    // Magic damage.
    let mut bad = sealed.clone();
    bad[0] ^= 0xFF;
    assert_eq!(Decoder::from_sealed(&bad).unwrap_err(), SnapshotError::BadMagic);

    // Unknown version.
    let mut bad = sealed.clone();
    bad[7] = 99;
    assert_eq!(Decoder::from_sealed(&bad).unwrap_err(), SnapshotError::BadVersion(99));

    // Payload corruption -> checksum mismatch.
    let mut bad = sealed.clone();
    let payload_at = bad.len() - 8 - 1;
    bad[payload_at] ^= 0x01;
    assert_eq!(Decoder::from_sealed(&bad).unwrap_err(), SnapshotError::ChecksumMismatch);

    // Clean round trip for contrast.
    let mut dec = Decoder::from_sealed(&sealed).unwrap();
    assert_eq!(dec.take_u64(), Ok(0xDEAD_BEEF));
    assert!(dec.is_empty());
}

#[test]
fn restore_refuses_per_cell_pricing_snapshots() {
    // States saved by the retired per-cell pricing path carry pool tag
    // 0 and no pool section; they are refused, never half-restored.
    let spec = Spec { counts: vec![2], load_fracs: vec![0.3, 0.7, 0.5], cut_frac: 0.5 };
    let instance = build(&spec);
    let oracle = Dispatcher::new();
    let mut src = PrefixDp::new(&instance, DpOptions::default());
    src.step(&instance, &oracle, 0);
    let mut enc = Encoder::new();
    enc.put_usize(src.slots_processed());
    rsz_offline::engine::snapshot::encode_table(&mut enc, src.table());
    enc.put_u8(0);
    let sealed = enc.into_sealed();
    let mut dst = PrefixDp::new(&instance, DpOptions::default());
    let mut dec = Decoder::from_sealed(&sealed).unwrap();
    assert_eq!(
        dst.restore_state(&instance, &mut dec),
        Err(SnapshotError::Corrupt("snapshot was taken with the engine off"))
    );
}
