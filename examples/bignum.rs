//! A downstream application: big-integer multiplication on the systolic
//! polynomial-product array.
//!
//! A base-10000 bignum is a polynomial in x = 10000; multiplying two of
//! them is exactly the polynomial product the array computes. The host
//! does what hosts do in the paper's model: prepare the streams, inject,
//! recover, and post-process (carry propagation).
//!
//! ```sh
//! cargo run --example bignum
//! ```

use systolizer::ir::HostStore;
use systolizer::{systolize_source, SystolizeOptions};

const BASE: i64 = 10_000;

const SOURCE: &str = "
    program polyprod;
    size n;
    var a[0..n], b[0..n], c[0..2*n];
    for i = 0 <- 1 -> n
    for j = 0 <- 1 -> n {
      c[i+j] = c[i+j] + a[i] * b[j];
    }
";

/// Parse a decimal string into little-endian base-10000 limbs.
fn to_limbs(s: &str) -> Vec<i64> {
    let digits: Vec<u8> = s.bytes().map(|b| b - b'0').collect();
    let mut limbs = Vec::new();
    let mut i = digits.len();
    while i > 0 {
        let lo = i.saturating_sub(4);
        let limb: i64 = digits[lo..i].iter().fold(0, |acc, &d| acc * 10 + d as i64);
        limbs.push(limb);
        i = lo;
    }
    if limbs.is_empty() {
        limbs.push(0);
    }
    limbs
}

/// Render little-endian limbs as a decimal string.
fn from_limbs(limbs: &[i64]) -> String {
    let mut out = String::new();
    for (i, &l) in limbs.iter().enumerate().rev() {
        if out.is_empty() {
            if l != 0 || i == 0 {
                out.push_str(&l.to_string());
            }
        } else {
            out.push_str(&format!("{l:04}"));
        }
    }
    out
}

/// Grade-school reference multiply for the check.
fn reference_multiply(a: &str, b: &str) -> String {
    let (la, lb) = (to_limbs(a), to_limbs(b));
    let mut acc = vec![0i64; la.len() + lb.len()];
    for (i, &x) in la.iter().enumerate() {
        for (j, &y) in lb.iter().enumerate() {
            acc[i + j] += x * y;
        }
    }
    carry(&mut acc);
    from_limbs(&acc)
}

fn carry(limbs: &mut Vec<i64>) {
    let mut c = 0i64;
    for l in limbs.iter_mut() {
        *l += c;
        c = *l / BASE;
        *l %= BASE;
    }
    while c > 0 {
        limbs.push(c % BASE);
        c /= BASE;
    }
}

fn main() {
    let x = "299792458000000008128312570216302006619";
    let y = "662607015000000314159265358979323846264";

    // Host-side preparation: limbs, padded to a common degree.
    let (mut la, mut lb) = (to_limbs(x), to_limbs(y));
    let deg = la.len().max(lb.len());
    la.resize(deg, 0);
    lb.resize(deg, 0);
    let n = (deg - 1) as i64;

    // Compile once (symbolic in n) and instantiate at this degree.
    let sys = systolize_source(SOURCE, &SystolizeOptions::default()).unwrap();
    let env = sys.size_env(&[n]).unwrap();
    let mut store = HostStore::allocate(&sys.source, &env);
    for (i, (&xa, &xb)) in la.iter().zip(&lb).enumerate() {
        store.get_mut("a").set(&[i as i64], xa);
        store.get_mut("b").set(&[i as i64], xb);
    }

    // Inject, run the array, recover.
    let run = sys.run(&[n], &store).unwrap();
    let mut limbs: Vec<i64> = (0..=2 * n).map(|k| run.store.get("c").get(&[k])).collect();
    carry(&mut limbs); // host post-processing
    let product = from_limbs(&limbs);

    println!("x            = {x}");
    println!("y            = {y}");
    println!("systolic x*y = {product}");
    let expect = reference_multiply(x, y);
    assert_eq!(
        product, expect,
        "systolic product disagrees with the reference"
    );
    println!("reference    = {expect}");
    println!();
    println!(
        "computed on {} processes in {} rendezvous rounds ({} limb products)",
        run.stats.processes,
        run.stats.rounds,
        (n + 1) * (n + 1)
    );
}
