//! Prints the batch ladder kernel this CPU selects for onion peeling.
//!
//! ```text
//! cargo run --release -p vuvuzela-crypto --example peel_kernel
//! ```
//!
//! `ifma8` means the eight-lane AVX-512 IFMA ladder runs; `fe4` means
//! the CPU lacks AVX-512 IFMA and the four-wide safe-Rust fallback runs.
//! CPU feature detection is the only selector.

fn main() {
    let kernel = vuvuzela_crypto::x25519::batch_kernel();
    let what = match kernel {
        "ifma8" => "eight-lane AVX-512 IFMA ladder",
        _ => "four-wide Fe4 fallback (no AVX-512 IFMA on this CPU)",
    };
    println!("peel kernel: {kernel} ({what})");
}
