//! Property tests: both parallel primitives agree with their sequential
//! counterparts for arbitrary inputs and chunk sizes.

#![cfg(feature = "proptest")]

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn par_map_equals_seq_map(input in prop::collection::vec(any::<i64>(), 0..300)) {
        let f = |&x: &i64| x.wrapping_mul(31).wrapping_add(7);
        prop_assert_eq!(parkit::par_map(&input, f), input.iter().map(f).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_equals_seq(len in 0usize..2000, chunk in 1usize..300) {
        let mut par_data = vec![0u32; len];
        let mut seq_data = vec![0u32; len];
        parkit::par_chunks_mut(&mut par_data, chunk, |offset, c| {
            for (k, v) in c.iter_mut().enumerate() {
                *v = ((offset + k) as u32).wrapping_mul(3);
            }
        });
        for (i, v) in seq_data.iter_mut().enumerate() {
            *v = (i as u32).wrapping_mul(3);
        }
        prop_assert_eq!(par_data, seq_data);
    }
}
