//! The traced binary: the same source with a counting global allocator, for
//! the traced passes and the per-layer metrics.

use outboard_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    outboard_benchmark::cli::main(true)
}
