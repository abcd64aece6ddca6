//! Property tests for the registry snapshot codec, over all three metric
//! kinds: encode → decode is the identity; truncated, bit-flipped and
//! arbitrary input is rejected or parsed without a panic; a claimed count
//! never outruns the bytes behind it; and a successful decode consumed its
//! input exactly.

use pgrid_core::histogram::LogHistogram;
use pgrid_obs::registry::MetricsRegistry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arbitrary_text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..24))
        .map(|_| char::from(rng.gen_range(b' '..=b'~')))
        .collect()
}

/// A registry of up to six families cycling through the three kinds, each
/// with up to three labelled series.
fn arbitrary_registry(rng: &mut StdRng) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    for family in 0..rng.gen_range(0..6usize) {
        let help = arbitrary_text(rng);
        for series in 0..rng.gen_range(1..4usize) {
            let (peer, link) = (series.to_string(), arbitrary_text(rng));
            let labels = [("peer", peer.as_str()), ("link", link.as_str())];
            let labels = &labels[..rng.gen_range(0..=2)];
            match family % 3 {
                0 => registry.counter(&format!("pgrid_c{family}_total"), &help, labels, rng.gen()),
                1 => {
                    let value = f64::from_bits(rng.gen());
                    // NaN is not equal to itself; the round trip is
                    // checked on everything that is.
                    let value = if value.is_nan() { 0.636 } else { value };
                    registry.gauge(&format!("pgrid_g{family}"), &help, labels, value);
                }
                _ => {
                    let mut histogram = LogHistogram::new();
                    for _ in 0..rng.gen_range(0..8) {
                        histogram.record(rng.gen_range(0..1 << 40));
                    }
                    registry.histogram(&format!("pgrid_h{family}_ms"), &help, labels, &histogram);
                }
            }
        }
    }
    registry
}

/// What every decode must satisfy, whatever the input: no panic (running
/// this is the check), and an accepted snapshot was consumed to its last
/// byte — one more byte, or one fewer, is no longer a snapshot.
fn assert_decode_is_exact(wire: &[u8]) -> Result<(), TestCaseError> {
    if MetricsRegistry::decode_wire(wire).is_err() {
        return Ok(());
    }
    let longer = [wire, &[0]].concat();
    prop_assert!(
        MetricsRegistry::decode_wire(&longer).is_err(),
        "trailing byte accepted"
    );
    if let Some((_, shorter)) = wire.split_last() {
        prop_assert!(
            MetricsRegistry::decode_wire(shorter).is_err(),
            "an accepted snapshot had a byte to spare"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_registry_roundtrips(seed in any::<u64>()) {
        let registry = arbitrary_registry(&mut StdRng::seed_from_u64(seed));
        let wire = registry.encode_wire();
        let decoded = MetricsRegistry::decode_wire(&wire);
        prop_assert_eq!(decoded.as_ref(), Ok(&registry));
        prop_assert_eq!(decoded.unwrap().encode(), registry.encode());
        assert_decode_is_exact(&wire)?;
    }

    #[test]
    fn truncated_snapshots_are_rejected(seed in any::<u64>(), cut in 0usize..1 << 20) {
        let wire = arbitrary_registry(&mut StdRng::seed_from_u64(seed)).encode_wire();
        // Every strict prefix is missing at least its trailing field.
        let cut = cut % wire.len();
        prop_assert!(MetricsRegistry::decode_wire(&wire[..cut]).is_err());
    }

    #[test]
    fn single_bit_flips_never_panic_and_never_leave_bytes_over(
        seed in any::<u64>(),
        bit in 0usize..1 << 24,
    ) {
        let mut wire = arbitrary_registry(&mut StdRng::seed_from_u64(seed)).encode_wire();
        let bit = bit % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        assert_decode_is_exact(&wire)?;
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_never_leave_bytes_over(
        kind in 0u8..4,
        body in proptest::collection::vec(any::<u8>(), 0..256),
        with_family in any::<bool>(),
    ) {
        // Half the cases open with one well-formed family head (name, help,
        // kind, one series, no labels), so the garbage reaches the value
        // decoders of every kind instead of dying at the first string.
        let mut wire = Vec::new();
        if with_family {
            wire.extend([1, 0, 0, 0, 1, 0, 0, 0, b'x', 0, 0, 0, 0, kind, 1, 0, 0, 0, 0]);
        }
        wire.extend(body);
        assert_decode_is_exact(&wire)?;
    }

    #[test]
    fn a_claimed_count_never_outruns_the_input(
        seed in any::<u64>(),
        kind in 0usize..3,
        field in 0usize..5,
        claimed in 1u32..=u32::MAX,
    ) {
        // One family of each kind, `name` / `help` of fixed length, so
        // every count of the format sits at a known offset: families,
        // name length, help length, series, and — histograms only —
        // buckets.  Claim `claimed` more than was encoded, append nothing.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut registry = MetricsRegistry::new();
        match kind {
            0 => registry.counter("pgrid_x", "help", &[], rng.gen()),
            1 => registry.gauge("pgrid_x", "help", &[], 0.636),
            _ => {
                let mut histogram = LogHistogram::new();
                histogram.record(rng.gen());
                registry.histogram("pgrid_x", "help", &[], &histogram);
            }
        }
        let mut wire = registry.encode_wire();
        let count_at = [0, 4, 4 + 4 + 7, 4 + 4 + 7 + 4 + 4 + 1, 4 + 4 + 7 + 4 + 4 + 1 + 4 + 1][field];
        if field == 4 && kind != 2 {
            return Ok(());
        }
        let at: [u8; 4] = wire[count_at..count_at + 4].try_into().unwrap();
        let Some(inflated) = u32::from_le_bytes(at).checked_add(claimed) else {
            return Ok(());
        };
        wire[count_at..count_at + 4].copy_from_slice(&inflated.to_le_bytes());
        prop_assert!(MetricsRegistry::decode_wire(&wire).is_err());
    }
}
