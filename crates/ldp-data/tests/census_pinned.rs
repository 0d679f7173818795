//! Pins the synthetic census populations bit for bit.
//!
//! Every figure, throughput sweep and benchmark workload starts from
//! `generate_br` / `generate_mx`, so a change to any drawn value moves
//! their checksums. These golden hashes make such a change fail here,
//! at its source, instead.

use ldp_data::census::{generate_br, generate_mx};
use ldp_data::{Column, Dataset};

/// 64-bit FNV-1a over every column's values, in schema order: numeric
/// values by their `f64` bits, categorical values as `u32`s, each
/// little-endian.
fn population_hash(ds: &Dataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for j in 0..ds.schema().d() {
        match ds.column(j) {
            Column::Numeric(values) => values.iter().for_each(|x| eat(&x.to_bits().to_le_bytes())),
            Column::Categorical(values) => values.iter().for_each(|v| eat(&v.to_le_bytes())),
        }
    }
    h
}

/// `(n, seed, BR hash, MX hash)`.
const GOLDEN: [(usize, u64, u64, u64); 5] = [
    (1, 1, 0x457c_6b24_6655_810f, 0xc499_9535_f3c9_320f),
    (100, 3, 0x22bf_6cae_a97d_41c4, 0x9069_93a4_8118_23a7),
    (2_000, 1, 0x516f_6e51_af4f_e962, 0xf255_f5ec_b4c3_1738),
    (32_768, 1, 0x9021_671a_bfe6_d747, 0x7380_919e_a862_cd6a),
    (50_000, 7, 0x0fa0_1ab0_8be4_9367, 0x7d1a_cda6_c470_4b5d),
];

#[test]
fn census_populations_are_pinned() {
    for (n, seed, br, mx) in GOLDEN {
        let got_br = population_hash(&generate_br(n, seed).expect("BR generates"));
        let got_mx = population_hash(&generate_mx(n, seed).expect("MX generates"));
        assert_eq!(got_br, br, "BR population n {n} seed {seed}");
        assert_eq!(got_mx, mx, "MX population n {n} seed {seed}");
    }
}
