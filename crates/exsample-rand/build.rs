//! Derives the ziggurat layer tables of `src/ziggurat.rs` from the
//! Marsaglia–Tsang layer recurrence and writes them to
//! `$OUT_DIR/ziggurat_tables.rs` as statics, so table lookups compile to
//! direct loads with no lazy initialisation.
//!
//! For a density `f` cut into `n` layers of area `V` whose base strip's
//! right edge is `R`: `x[0] = V/f(R)` (the base strip's width, tail
//! included), `x[1] = R`, `x[i] = f⁻¹(V/x[i-1] + f(x[i-1]))` and `x[n] = 0`,
//! with `y[i] = f(x[i])`.  Every value is written as `f64::from_bits`, so no
//! float formatting rounds it.

use std::path::Path;

fn main() {
    let normal = tables(
        "NORMAL",
        128,
        3.442_619_855_899,
        9.912_563_035_262_17e-3,
        |x| (-0.5 * x * x).exp(),
        |y| (-2.0 * y.ln()).sqrt(),
    );
    let exp = tables(
        "EXP",
        256,
        7.697_117_470_131_05,
        3.949_659_822_581_557e-3,
        |x| (-x).exp(),
        |y| -y.ln(),
    );
    let path = Path::new(&std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"))
        .join("ziggurat_tables.rs");
    std::fs::write(path, normal + &exp).expect("write the ziggurat tables");
    println!("cargo:rerun-if-changed=build.rs");
}

/// `{prefix}_R` and the `n + 1` layer boundaries `{prefix}_X` and densities
/// `{prefix}_Y` of the ziggurat of `f` with base edge `r` and layer area `v`,
/// as Rust source.
fn tables(
    prefix: &str,
    n: usize,
    r: f64,
    v: f64,
    f: fn(f64) -> f64,
    f_inv: fn(f64) -> f64,
) -> String {
    let mut x = vec![0.0; n + 1];
    x[0] = v / f(r);
    x[1] = r;
    for i in 2..n {
        x[i] = f_inv(v / x[i - 1] + f(x[i - 1]));
    }
    let y: Vec<f64> = x.iter().map(|&x| f(x)).collect();
    let bits = |v: f64| format!("f64::from_bits({:#018x})", v.to_bits());
    let mut out = format!("const {prefix}_R: f64 = {};\n", bits(r));
    for (axis, values) in [("X", &x), ("Y", &y)] {
        out += &format!("static {prefix}_{axis}: [f64; {}] = [\n", n + 1);
        for &value in values {
            out += &format!("    {},\n", bits(value));
        }
        out += "];\n";
    }
    out
}
