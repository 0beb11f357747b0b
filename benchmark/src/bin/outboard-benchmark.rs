//! The plain binary: system allocator, end-to-end metrics.

fn main() -> std::process::ExitCode {
    outboard_benchmark::cli::main(false)
}
