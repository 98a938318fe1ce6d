//! Prints the batch kernels this CPU selects for onion peeling and for
//! noise generation.
//!
//! ```text
//! cargo run --release -p vuvuzela-crypto --example peel_kernel
//! ```
//!
//! One CPU check selects both. `ifma8` means the CPU has AVX-512 IFMA:
//! the eight-lane ladder peels and the eight-lane comb builds cover
//! traffic (its keygens and its DHs against server keys). `fe4` means it
//! lacks IFMA: the four-wide safe-Rust ladder peels and the scalar comb
//! builds cover traffic. CPU feature detection is the only selector.

fn main() {
    let kernel = vuvuzela_crypto::x25519::batch_kernel();
    let (peel, noise) = match kernel {
        "ifma8" => (
            "eight-lane AVX-512 IFMA ladder",
            "eight-lane AVX-512 IFMA comb",
        ),
        _ => (
            "four-wide Fe4 fallback (no AVX-512 IFMA on this CPU)",
            "scalar comb (no AVX-512 IFMA on this CPU)",
        ),
    };
    println!("peel kernel: {kernel} ({peel})");
    println!("noise kernel: {kernel} ({noise})");
}
