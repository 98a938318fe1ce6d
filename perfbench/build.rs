//! Records the build's `target-cpu` for the machine fingerprint.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\u{1f}')
        .filter_map(|flag| {
            flag.strip_prefix("target-cpu=")
                .or_else(|| flag.strip_prefix("-Ctarget-cpu="))
        })
        .next_back()
        .unwrap_or("default")
        .to_string();
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
