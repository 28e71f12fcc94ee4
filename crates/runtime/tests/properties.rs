//! Property-based tests for the data plane (chunks, parcels, patterns).

use eag_rope::Rope;
use eag_runtime::{
    pattern_block, pattern_block_pair, pattern_matches, pattern_matches_pair, Chunk, Data, Item,
    Parcel, Sealed,
};
use proptest::prelude::*;

fn arb_chunk(max_origins: usize, block_len: usize) -> impl Strategy<Value = Chunk> {
    proptest::collection::vec(0usize..64, 1..=max_origins).prop_map(move |origins| {
        let data: Vec<u8> = origins
            .iter()
            .flat_map(|&o| pattern_block(7, o, block_len))
            .collect();
        Chunk {
            origins,
            block_len,
            data: Data::Real(data.into()),
        }
    })
}

/// `bytes` as a rope cut at `cuts` (clamped to the length, any order), so
/// segment boundaries land anywhere, not only on 8-byte word boundaries.
fn segmented(bytes: &[u8], cuts: &[usize]) -> Rope {
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
    cuts.sort_unstable();
    let mut rope = Rope::new();
    let mut start = 0;
    for end in cuts.into_iter().chain([bytes.len()]) {
        rope.append(bytes[start..end].to_vec().into());
        start = end;
    }
    rope
}

proptest! {
    /// split ∘ concat = identity on single-origin chunk lists.
    #[test]
    fn concat_split_roundtrip(chunks in proptest::collection::vec(arb_chunk(1, 8), 1..10)) {
        let merged = Chunk::concat(&chunks);
        merged.check();
        prop_assert_eq!(merged.split(), chunks);
    }

    /// concat preserves total length and origin order.
    #[test]
    fn concat_preserves_layout(chunks in proptest::collection::vec(arb_chunk(3, 4), 1..8)) {
        let merged = Chunk::concat(&chunks);
        let want_len: usize = chunks.iter().map(Chunk::len).sum();
        prop_assert_eq!(merged.len(), want_len);
        let want_origins: Vec<usize> =
            chunks.iter().flat_map(|c| c.origins.clone()).collect();
        prop_assert_eq!(&merged.origins, &want_origins);
    }

    /// Parcel wire length = payload length + 28 per sealed item.
    #[test]
    fn parcel_framing_arithmetic(
        plains in proptest::collection::vec(arb_chunk(2, 16), 0..5),
        sealed_lens in proptest::collection::vec(1usize..100, 0..5),
    ) {
        let mut items: Vec<Item> = plains.into_iter().map(Item::Plain).collect();
        let sealed_count = sealed_lens.len();
        for (i, len) in sealed_lens.into_iter().enumerate() {
            items.push(Item::Sealed(Sealed {
                origins: vec![i],
                block_len: len,
                plain_len: len,
                data: Data::Phantom(len + 28),
            }));
        }
        let parcel = Parcel { items };
        prop_assert_eq!(
            parcel.wire_len(),
            parcel.payload_len() + 28 * sealed_count
        );
    }

    /// pattern_block is a pure function of (seed, origin, len) and is
    /// prefix-consistent.
    #[test]
    fn pattern_block_properties(seed in any::<u64>(), origin in 0usize..1000, len in 0usize..200) {
        let a = pattern_block(seed, origin, len);
        prop_assert_eq!(a.len(), len);
        prop_assert_eq!(&a, &pattern_block(seed, origin, len));
        if len >= 8 {
            let longer = pattern_block(seed, origin, len + 40);
            prop_assert_eq!(&longer[..len], &a[..]);
        }
    }

    /// The streaming matcher accepts exactly the ropes equal to the
    /// generated pattern, for every segmentation; a corrupted byte makes
    /// both sides disagree with the pattern.
    #[test]
    fn pattern_matches_iff_equal(
        seed in any::<u64>(),
        origin in 0usize..1000,
        len in 0usize..=300,
        cuts in proptest::collection::vec(0usize..=300, 0..6),
        corrupt in any::<bool>(),
        pos in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = pattern_block(seed, origin, len);
        if corrupt && len > 0 {
            bytes[pos % len] ^= mask;
        }
        let rope = segmented(&bytes, &cuts);
        prop_assert_eq!(
            pattern_matches(seed, origin, &rope).is_ok(),
            rope == pattern_block(seed, origin, len)
        );
        let dst = origin + 1;
        let mut pair = pattern_block_pair(seed, origin, dst, len);
        if corrupt && len > 0 {
            pair[pos % len] ^= mask;
        }
        let rope = segmented(&pair, &cuts);
        prop_assert_eq!(
            pattern_matches_pair(seed, origin, dst, &rope).is_ok(),
            rope == pattern_block_pair(seed, origin, dst, len)
        );
    }

    /// A single flipped byte anywhere — in a segment's head, a word of its
    /// body, or its sub-word tail — is rejected at exactly its offset.
    #[test]
    fn pattern_matches_reports_every_flipped_offset(
        seed in any::<u64>(),
        origin in 0usize..1000,
        len in 1usize..=300,
        cuts in proptest::collection::vec(0usize..=300, 0..6),
        mask in 1u8..=255,
    ) {
        let bytes = pattern_block(seed, origin, len);
        let mut rope = segmented(&bytes, &cuts);
        prop_assert_eq!(pattern_matches(seed, origin, &rope), Ok(()));
        for at in 0..len {
            rope.xor_byte(at, mask);
            prop_assert_eq!(pattern_matches(seed, origin, &rope), Err(at));
            rope.xor_byte(at, mask);
        }
    }

    /// The right bytes under the wrong key are rejected: another seed,
    /// another origin, or another (src, dst) pair.
    #[test]
    fn pattern_matches_rejects_wrong_keys(
        seed in any::<u64>(),
        other_seed in any::<u64>(),
        src in 0usize..1000,
        other in 0usize..1000,
        len in 8usize..=300,
        cuts in proptest::collection::vec(0usize..=300, 0..6),
    ) {
        let rope = segmented(&pattern_block(seed, src, len), &cuts);
        if other_seed != seed {
            prop_assert!(pattern_matches(other_seed, src, &rope).is_err());
        }
        if other != src {
            prop_assert!(pattern_matches(seed, other, &rope).is_err());
        }
        let dst = src + 1;
        let rope = segmented(&pattern_block_pair(seed, src, dst, len), &cuts);
        prop_assert!(pattern_matches_pair(seed, src, dst, &rope).is_ok());
        prop_assert!(pattern_matches_pair(seed, dst, src, &rope).is_err());
        if other != dst {
            prop_assert!(pattern_matches_pair(seed, src, other, &rope).is_err());
        }
        prop_assert!(pattern_matches(seed, src, &rope).is_err());
    }
}
