//! `prestage-analyze` — the driver for the lint pass
//! ([`prestage_analyze::cli`]).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(prestage_analyze::cli::run(&args));
}
