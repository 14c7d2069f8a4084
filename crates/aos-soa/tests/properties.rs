//! Property tests for the AoS ⇄ SoA conversion and the skinny kernels.
//!
//! Cases are drawn from the deterministic `ipt_core::check::Rng` (fixed
//! seeds), so every run exercises the same shapes and payloads.

use ipt_aos_soa::{aos_to_soa, soa_to_aos, transpose_skinny_c2r, transpose_skinny_r2c, SoaView};
use ipt_core::check::{fill_pattern, Rng};
use ipt_core::Scratch;

const CASES: usize = 128;

#[test]
fn conversion_places_every_field() {
    let mut rng = Rng::new(0xa05a_0001);
    for case in 0..CASES {
        let n = rng.range(1..300);
        let s = rng.range(1..33);
        let orig: Vec<u64> = (0..n * s).map(|_| rng.next_u64()).collect();
        let mut data = orig.clone();
        aos_to_soa(&mut data, n, s).unwrap();
        for i in 0..n {
            for k in 0..s {
                assert_eq!(
                    data[k * n + i],
                    orig[i * s + k],
                    "case {case}: n={n} s={s} struct {i} field {k}"
                );
            }
        }
        soa_to_aos(&mut data, n, s).unwrap();
        assert_eq!(data, orig, "case {case}: n={n} s={s}");
    }
}

#[test]
fn skinny_kernels_equal_core_for_any_shape() {
    let mut rng = Rng::new(0xa05a_0002);
    for case in 0..CASES {
        let m = rng.range(1..64);
        let n = rng.range(1..200);
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let mut b = a.clone();
        transpose_skinny_c2r(&mut a, m, n).unwrap();
        ipt_core::c2r(&mut b, m, n, &mut Scratch::new());
        assert_eq!(&a, &b, "case {case}: c2r {m}x{n}");

        let mut a = vec![0u32; m * n];
        fill_pattern(&mut a);
        let mut b = a.clone();
        transpose_skinny_r2c(&mut a, m, n).unwrap();
        ipt_core::r2c(&mut b, m, n, &mut Scratch::new());
        assert_eq!(a, b, "case {case}: r2c {m}x{n}");
    }
}

fn is_prime(n: usize) -> bool {
    n >= 2 && (2..).take_while(|d| d * d <= n).all(|d| n % d != 0)
}

/// Struct counts that reach every plan for `s` fields of `size` bytes,
/// where a chunk holds at most 512 KiB (`cap` structs): one chunk; two
/// chunks with `K | N`; a prime past two chunks (the peel, pass B
/// included); and, when `cap + 1` or `2·cap + 1` is prime, that count (a
/// peel with `N mod K = 1`).
fn plan_counts(s: usize, size: usize) -> Vec<usize> {
    let cap = (512 * 1024) / (s * size);
    let prime_past = (2 * cap + 1..).find(|&n| is_prime(n)).unwrap();
    let mut counts = vec![cap.min(97), 2 * cap, prime_past];
    counts.extend([cap + 1, 2 * cap + 1].into_iter().find(|&n| is_prime(n)));
    counts
}

/// `transpose_skinny_r2c`/`_c2r` against `ipt_core::r2c`/`c2r` and as a
/// round trip, on every plan for each field count in `fields`, for one
/// element type (`encode` spreads indices over its values). Returns how
/// many cases peeled a single struct.
fn conversions_match_core<T>(
    fields: impl IntoIterator<Item = usize>,
    encode: impl Fn(usize) -> T,
) -> usize
where
    T: Copy + Send + Sync + PartialEq + 'static,
{
    let size = std::mem::size_of::<T>();
    let mut one_struct_tails = 0;
    for s in fields {
        let cap = (512 * 1024) / (s * size);
        for n in plan_counts(s, size) {
            one_struct_tails += usize::from(n > cap && n % cap == 1);
            let orig: Vec<T> = (0..n * s).map(&encode).collect();
            let mut a = orig.clone();
            let mut want = orig.clone();
            transpose_skinny_r2c(&mut a, s, n).unwrap();
            ipt_core::r2c(&mut want, s, n, &mut Scratch::new());
            assert!(a == want, "r2c s={s} n={n} size={size}");
            transpose_skinny_c2r(&mut a, s, n).unwrap();
            assert!(a == orig, "round trip s={s} n={n} size={size}");

            let mut want = orig.clone();
            transpose_skinny_c2r(&mut a, s, n).unwrap();
            ipt_core::c2r(&mut want, s, n, &mut Scratch::new());
            assert!(a == want, "c2r s={s} n={n} size={size}");
        }
    }
    one_struct_tails
}

#[test]
fn every_plan_matches_core_for_u8_u32_u64() {
    let tails = [
        conversions_match_core(2..=31, |i| i as u64),
        conversions_match_core([2, 3, 12, 31], |i| i as u32),
        conversions_match_core([2, 3, 12, 31], |i| {
            ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8
        }),
    ];
    assert!(
        tails.iter().all(|&t| t > 0),
        "N mod K = 1 not reached: {tails:?}"
    );
}

#[test]
fn view_and_buffer_agree() {
    let mut rng = Rng::new(0xa05a_0003);
    for case in 0..CASES {
        let n = rng.range(1..100);
        let s = rng.range(1..16);
        let mut data = vec![0u32; n * s];
        fill_pattern(&mut data);
        let view = SoaView::new(&data, s, n);
        for k in 0..s {
            assert_eq!(
                view.field(k),
                &data[k * n..(k + 1) * n],
                "case {case}: n={n} s={s} k={k}"
            );
            for i in 0..n {
                assert_eq!(
                    view.get(i, k),
                    data[k * n + i],
                    "case {case}: n={n} s={s} ({i},{k})"
                );
            }
        }
        assert_eq!(view.is_empty(), n == 0, "case {case}");
    }
}

#[test]
fn conversion_commutes_with_per_field_maps() {
    let mut rng = Rng::new(0xa05a_0004);
    for case in 0..CASES {
        let n = rng.range(1..120);
        let s = rng.range(2..12);
        // Mapping field k in AoS then converting equals converting then
        // mapping the k-th array: the layouts describe the same data.
        let mut via_aos: Vec<u64> = (0..(n * s) as u64).collect();
        let k = s / 2;
        for st in via_aos.chunks_exact_mut(s) {
            st[k] = st[k].wrapping_mul(3);
        }
        aos_to_soa(&mut via_aos, n, s).unwrap();

        let mut via_soa: Vec<u64> = (0..(n * s) as u64).collect();
        aos_to_soa(&mut via_soa, n, s).unwrap();
        for v in &mut via_soa[k * n..(k + 1) * n] {
            *v = v.wrapping_mul(3);
        }
        assert_eq!(via_aos, via_soa, "case {case}: n={n} s={s}");
    }
}

#[test]
fn large_conversion_round_trip() {
    // One big deterministic case at Figure-7-like scale.
    let (n, s) = (100_000usize, 12usize);
    let orig: Vec<u64> = (0..(n * s) as u64)
        .map(|x| x.wrapping_mul(0x9e3779b9))
        .collect();
    let mut data = orig.clone();
    aos_to_soa(&mut data, n, s).unwrap();
    assert_ne!(data, orig);
    soa_to_aos(&mut data, n, s).unwrap();
    assert_eq!(data, orig);
}
