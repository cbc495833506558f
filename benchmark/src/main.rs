//! `amsfi-benchmark`: see `benchmark/README.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(amsfi_benchmark::cli::main(&args));
}
