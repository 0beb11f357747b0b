//! Table 1: the host-interface taxonomy — operations per (API semantics,
//! checksum location, adaptor architecture) cell, with the efficiency
//! class each cell falls into.

use outboard_taxonomy::*;

fn main() {
    println!("== Table 1: host interface taxonomy (transmit operations) ==\n");
    println!("{}", render_table());
    println!("\nclassification:");
    for (api, csum) in table_rows() {
        for a in adaptor_columns() {
            let ops = transmit_ops(api, csum, a);
            let cls = classify(&ops);
            let ops_s: Vec<String> = ops.iter().map(|o| o.to_string()).collect();
            println!(
                "  {:?}/{:?} + {:?}/{:?}: {:24} -> {} ({} CPU accesses/byte)",
                api,
                csum,
                a.buffering,
                a.mover,
                ops_s.join(" "),
                cls,
                cell_cpu_accesses(api, csum, a)
            );
        }
    }
    println!("\nThe paper's focus cell — Copy/Header over Outboard/DMA+C (sockets");
    println!("over the CAB) — is single-copy with zero CPU data accesses.");
    outboard_bench::observe("table1", &outboard_host::MachineConfig::alpha_3000_400());
}
